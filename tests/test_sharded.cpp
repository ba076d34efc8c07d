// Sharded solve: k-way decomposition + parallel region solves + exact
// refinement (core::ShardedSolver). The battery checks exactness against
// the direct solver across mixed generators and shard counts, the validity
// of the pre-refinement optimality bound, feasibility of the returned flow,
// registry/capability wiring, and the serve-protocol `solve --shards` path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.hpp"
#include "core/serve_engine.hpp"
#include "core/sharded_solver.hpp"
#include "flow/maxflow.hpp"
#include "graph/generators.hpp"
#include "graph/network.hpp"

namespace core = aflow::core;
namespace flow = aflow::flow;
namespace graph = aflow::graph;

namespace {

std::vector<graph::FlowNetwork> mixed_instances() {
  std::vector<graph::FlowNetwork> nets;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    nets.push_back(graph::rmat(90, 420, {}, seed));
    nets.push_back(graph::uniform_random(80, 400, 32, seed));
    nets.push_back(graph::layered_random(5, 14, 4, 24, seed));
    nets.push_back(graph::gridflow(11, 9, 16, seed));
  }
  return nets;
}

} // namespace

// The acceptance battery: >= 50 (instance, k) pairs, identical max-flow
// value to the direct solver, feasible flow, and a bound that is valid
// before refinement ever runs.
TEST(Sharded, MatchesDirectSolverAcrossGeneratorsAndShardCounts) {
  const auto nets = mixed_instances();
  int cases = 0;
  for (const auto& net : nets) {
    const double exact = flow::dinic(net).flow_value;
    for (int k : {2, 4, 8}) {
      core::ShardOptions opt;
      opt.shards = k;
      const core::ShardedSolver solver(opt);
      core::ShardReport rep;
      const flow::MaxFlowResult r = solver.solve_csr(net, &rep);
      const std::string label =
          "n=" + std::to_string(net.num_vertices()) + " k=" + std::to_string(k);
      EXPECT_NEAR(r.flow_value, exact, 1e-9 * std::max(1.0, exact)) << label;
      EXPECT_GE(rep.upper_bound, r.flow_value - 1e-9) << label;
      EXPECT_GE(r.flow_value, rep.stitched_value - 1e-9) << label;
      EXPECT_GE(rep.stitched_value, 0.0) << label;
      EXPECT_NEAR(rep.flow_value, rep.stitched_value + rep.refined_added, 1e-9)
          << label;
      EXPECT_EQ(rep.regions, k) << label;
      int covered = 0;
      for (int c : rep.region_vertices) covered += c;
      EXPECT_EQ(covered, net.num_vertices()) << label;
      EXPECT_TRUE(flow::check_flow(net, r).empty()) << label;
      ++cases;
    }
  }
  EXPECT_GE(cases, 50);
}

TEST(Sharded, RegisteredAsAnExactBackend) {
  auto& reg = core::SolverRegistry::instance();
  ASSERT_TRUE(reg.contains("sharded"));
  const auto solver = reg.create("sharded");
  EXPECT_EQ(solver->name(), "sharded");
  EXPECT_TRUE(solver->capabilities().exact);
  EXPECT_FALSE(solver->capabilities().analog);

  // The plain ISolver entry solves FlowNetwork instances like any backend.
  const auto net = graph::rmat(60, 260, {}, 3);
  EXPECT_NEAR(solver->solve(net).flow_value, flow::dinic(net).flow_value,
              1e-9);
}

TEST(Sharded, RejectsAShardCountBelowOne) {
  EXPECT_THROW(core::ShardedSolver(core::ShardOptions{.shards = 0}),
               std::invalid_argument);
}

TEST(Sharded, DeterministicAcrossRunsAndThreadCounts) {
  const auto net = graph::rmat(110, 520, {}, 7);
    core::ShardOptions a;
  a.shards = 4;
  a.num_threads = 1;
  core::ShardOptions b = a;
  b.num_threads = 0; // hardware concurrency
  core::ShardReport ra, rb;
  const flow::MaxFlowResult fa = core::ShardedSolver(a).solve_csr(net, &ra);
  const flow::MaxFlowResult fb = core::ShardedSolver(b).solve_csr(net, &rb);
  // Regions write disjoint slots and refinement is sequential, so the
  // result is bit-identical regardless of the worker schedule.
  EXPECT_EQ(fa.flow_value, fb.flow_value);
  ASSERT_EQ(fa.edge_flow.size(), fb.edge_flow.size());
  for (size_t e = 0; e < fa.edge_flow.size(); ++e)
    EXPECT_EQ(fa.edge_flow[e], fb.edge_flow[e]) << e;
  EXPECT_EQ(ra.region_vertices, rb.region_vertices);
  EXPECT_EQ(ra.cut_arcs, rb.cut_arcs);
  EXPECT_EQ(ra.stitched_value, rb.stitched_value);
}

TEST(Sharded, DegenerateShardCountsFallBackToDirectSolve) {
  const auto net = graph::rmat(50, 200, {}, 4);
  const double exact = flow::dinic(net).flow_value;
  
  core::ShardOptions one;
  one.shards = 1;
  core::ShardReport rep;
  EXPECT_NEAR(core::ShardedSolver(one).solve_csr(net, &rep).flow_value, exact,
              1e-9);
  EXPECT_EQ(rep.regions, 1);

  // shards > n clamps to the vertex count instead of throwing.
  core::ShardOptions many;
  many.shards = 10 * net.num_vertices();
  EXPECT_NEAR(core::ShardedSolver(many).solve_csr(net).flow_value, exact, 1e-9);
}

TEST(Sharded, TinyAndDisconnectedInstances) {
  // Two vertices, one edge: every k degenerates sensibly.
  graph::FlowNetwork tiny(2, 0, 1);
  tiny.add_edge(0, 1, 3.0);
  core::ShardOptions opt;
  opt.shards = 8;
  EXPECT_NEAR(core::ShardedSolver(opt).solve_csr(tiny).flow_value, 3.0,
              1e-12);

  // Disconnected terminals: zero flow, no crash at any stage.
  graph::FlowNetwork split(6, 0, 5);
  split.add_edge(0, 1, 2.0);
  split.add_edge(1, 2, 2.0);
  split.add_edge(3, 4, 2.0);
  split.add_edge(4, 5, 2.0);
  core::ShardOptions k3;
  k3.shards = 3;
  core::ShardReport rep;
  EXPECT_NEAR(core::ShardedSolver(k3).solve_csr(split, &rep).flow_value, 0.0,
              1e-12);
  EXPECT_GE(rep.upper_bound, 0.0);
}

// Serve-protocol front: `solve --shards K` on the loaded instance matches
// the direct solve of the same revision and reports the shards object.
TEST(Sharded, ServeSolveShardsMatchesDirectPath) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  ASSERT_NE(engine.handle("load --spec grid:side=7,seed=4").find("\"ok\":true"),
            std::string::npos);

  const std::string direct = engine.handle("solve --solver dinic");
  ASSERT_NE(direct.find("\"ok\":true"), std::string::npos) << direct;
  const auto flow_of = [](const std::string& json) {
    const auto at = json.find("\"flow\":");
    return std::stod(json.substr(at + 7));
  };

  const std::string sharded = engine.handle("solve --shards 4");
  ASSERT_NE(sharded.find("\"ok\":true"), std::string::npos) << sharded;
  EXPECT_NE(sharded.find("\"solver\":\"sharded\""), std::string::npos)
      << sharded;
  EXPECT_NE(sharded.find("\"shards\":{"), std::string::npos) << sharded;
  EXPECT_NE(sharded.find("\"upper_bound\":"), std::string::npos) << sharded;
  EXPECT_NEAR(flow_of(sharded), flow_of(direct), 1e-9);
}

// Serve's sharded solve runs its regions with push-relabel (the kernel the
// refinement runs too), says so, and still answers the direct solve's flow.
TEST(Sharded, ServeSolveShardsReportsPushRelabelRegions) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  ASSERT_NE(engine.handle("load --spec grid:side=7,seed=4").find("\"ok\":true"),
            std::string::npos);
  const auto flow_of = [](const std::string& json) {
    const auto at = json.find("\"flow\":");
    return std::stod(json.substr(at + 7));
  };
  const std::string direct = engine.handle("solve --solver push_relabel");
  ASSERT_NE(direct.find("\"ok\":true"), std::string::npos) << direct;

  const std::string sharded = engine.handle("solve --shards 4");
  ASSERT_NE(sharded.find("\"ok\":true"), std::string::npos) << sharded;
  EXPECT_NE(sharded.find("\"region_solver\":\"push_relabel\""),
            std::string::npos)
      << sharded;
  EXPECT_NEAR(flow_of(sharded), flow_of(direct), 1e-9);
}

// A request line cannot size the region fan-out past the hardware: however
// many regions `solve --shards` asks for, `--threads` is clamped to
// hardware_concurrency.
TEST(Sharded, ServeSolveShardsClampsThreadsToTheHardware) {
  const int hardware =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int shards = std::min(64, 2 * hardware);
  core::ServeEngine engine;
  const std::string load = engine.handle("load --spec grid:side=12,seed=1");
  ASSERT_NE(load.find("\"ok\":true"), std::string::npos) << load;
  const std::string sharded = engine.handle(
      "solve --shards " + std::to_string(shards) + " --threads 1024");
  ASSERT_NE(sharded.find("\"ok\":true"), std::string::npos) << sharded;
  const size_t at =
      sharded.find("\"threads\":", sharded.find("\"shards\":{"));
  ASSERT_NE(at, std::string::npos) << sharded;
  EXPECT_LE(std::stoi(sharded.substr(at + 10)), hardware) << sharded;
}
