// Classical max-flow solvers: known answers, feasibility, cross-agreement,
// and max-flow = min-cut duality.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <string>

#include "core/sharded_solver.hpp"
#include "core/workload.hpp"
#include "flow/delta.hpp"
#include "flow/maxflow.hpp"
#include "graph/generators.hpp"

namespace core = aflow::core;
namespace flow = aflow::flow;
namespace graph = aflow::graph;

using Solver = flow::MaxFlowResult (*)(const graph::FlowNetwork&);

namespace {

// Wrapped in lambdas because the underlying entry points also take a
// defaulted CancelToken, which is part of the function-pointer type.
const std::vector<std::pair<const char*, Solver>> kSolvers = {
    {"edmonds_karp",
     [](const graph::FlowNetwork& g) { return flow::edmonds_karp(g); }},
    {"dinic", [](const graph::FlowNetwork& g) { return flow::dinic(g); }},
    {"push_relabel",
     [](const graph::FlowNetwork& g) { return flow::push_relabel(g); }},
};

} // namespace

TEST(MaxFlow, PaperFig5HasValue2) {
  const auto g = graph::paper_example_fig5();
  for (const auto& [name, solve] : kSolvers) {
    const auto r = solve(g);
    EXPECT_DOUBLE_EQ(r.flow_value, 2.0) << name;
    EXPECT_EQ(flow::check_flow(g, r), "") << name;
  }
}

TEST(MaxFlow, PaperFig15HasValue4) {
  const auto g = graph::paper_example_fig15();
  for (const auto& [name, solve] : kSolvers) {
    EXPECT_DOUBLE_EQ(solve(g).flow_value, 4.0) << name;
  }
}

TEST(MaxFlow, SingleEdge) {
  graph::FlowNetwork g(2, 0, 1);
  g.add_edge(0, 1, 5.0);
  for (const auto& [name, solve] : kSolvers)
    EXPECT_DOUBLE_EQ(solve(g).flow_value, 5.0) << name;
}

TEST(MaxFlow, DisconnectedIsZero) {
  graph::FlowNetwork g(4, 0, 3);
  g.add_edge(0, 1, 5.0);
  g.add_edge(2, 3, 5.0);
  for (const auto& [name, solve] : kSolvers)
    EXPECT_DOUBLE_EQ(solve(g).flow_value, 0.0) << name;
}

TEST(MaxFlow, ParallelEdgesAdd) {
  graph::FlowNetwork g(2, 0, 1);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 1, 3.0);
  for (const auto& [name, solve] : kSolvers)
    EXPECT_DOUBLE_EQ(solve(g).flow_value, 5.0) << name;
}

TEST(MaxFlow, BackEdgeRequiresResidualUndo) {
  // The classic instance where a greedy path must be partially undone via
  // the residual back edge.
  graph::FlowNetwork g(4, 0, 3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(2, 3, 1.0);
  for (const auto& [name, solve] : kSolvers)
    EXPECT_DOUBLE_EQ(solve(g).flow_value, 2.0) << name;
}

TEST(MaxFlow, EdgesIntoSourceAndOutOfSinkAreHarmless) {
  graph::FlowNetwork g(4, 0, 3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 3, 2.0);
  g.add_edge(3, 2, 5.0); // out of sink
  g.add_edge(2, 0, 5.0); // into source
  for (const auto& [name, solve] : kSolvers) {
    const auto r = solve(g);
    EXPECT_DOUBLE_EQ(r.flow_value, 2.0) << name;
    EXPECT_EQ(flow::check_flow(g, r), "") << name;
  }
}

class MaxFlowAgreement : public ::testing::TestWithParam<int> {};

TEST_P(MaxFlowAgreement, AllSolversAgreeAndAreFeasible) {
  const int seed = GetParam();
  const std::vector<graph::FlowNetwork> instances = {
      graph::rmat(48, 300, {}, seed),
      graph::rmat_sparse(64, seed),
      graph::layered_random(4, 6, 3, 12, seed),
      graph::uniform_random(40, 160, 9, seed),
      graph::gridflow(12, 10, 16, seed),
      core::load_batch("grid:side=8,seed=" + std::to_string(seed)).front(),
  };
  for (const auto& g : instances) {
    const auto ek = flow::edmonds_karp(g);
    const auto di = flow::dinic(g);
    const auto pr = flow::push_relabel(g);
    EXPECT_NEAR(ek.flow_value, di.flow_value, 1e-9);
    EXPECT_NEAR(ek.flow_value, pr.flow_value, 1e-9);
    EXPECT_EQ(flow::check_flow(g, ek), "");
    EXPECT_EQ(flow::check_flow(g, di), "");
    EXPECT_EQ(flow::check_flow(g, pr), "");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxFlowAgreement, ::testing::Range(1, 13));

class MinCutDuality : public ::testing::TestWithParam<int> {};

TEST_P(MinCutDuality, CutValueEqualsFlowValue) {
  const auto g = graph::rmat(56, 350, {}, GetParam());
  const auto r = flow::dinic(g);
  const auto cut = flow::min_cut_from_flow(g, r);
  EXPECT_NEAR(cut.cut_value, r.flow_value, 1e-9);
  EXPECT_TRUE(cut.side[g.source()]);
  EXPECT_FALSE(cut.side[g.sink()]);
  // Every cut edge is saturated.
  for (int e : cut.cut_edges)
    EXPECT_NEAR(r.edge_flow[e], g.edge(e).capacity, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCutDuality, ::testing::Range(1, 9));

TEST(PushRelabel, ConservationAuditOnRandomInstances) {
  // Push-relabel terminates with a preflow; the returned edge_flow is only
  // a flow if every unit of stranded excess has been pushed back to the
  // source. This audit sweeps ~150 random instances — including sparse
  // ones with large source-side regions that cannot reach the sink, where
  // the gap heuristic lifts whole height levels past n, and lattices with
  // hundreds of source arcs, where the flood parks excess at n and height
  // refreshes run mid-pass — and asserts true conservation at every
  // non-terminal vertex plus value agreement with Dinic's independent
  // implementation. Each instance is solved again with its capacities
  // scaled by 1e9 and by 1/3, where the pass's dust thresholds scale with
  // the capacities and the flow is no longer integral.
  int audited = 0;
  for (int seed = 1; seed <= 25; ++seed) {
    const graph::FlowNetwork nets[] = {
        graph::rmat_sparse(120, seed, 5.0), // stranded-excess-prone
        graph::rmat_dense(60, seed),
        graph::layered_random(6, 10, 3, 16, seed),
        graph::uniform_random(90, 360, 32, seed),
        graph::gridflow(30, 30, 16, seed),
        core::load_batch("grid:side=20,seed=" + std::to_string(seed)).front(),
    };
    for (const auto& net : nets) {
      ++audited;
      const auto pr = flow::push_relabel(net);
      const auto dn = flow::dinic(net);
      EXPECT_EQ(flow::check_flow(net, pr), "")
          << "seed " << seed << ": push-relabel left a preflow (stranded "
             "excess) or violated a capacity";
      EXPECT_DOUBLE_EQ(pr.flow_value, dn.flow_value) << "seed " << seed;

      for (const double factor : {1e9, 1.0 / 3.0}) {
        const graph::FlowNetwork scaled =
            net.transform_capacities([factor](double c) { return c * factor; });
        const auto ps = flow::push_relabel(scaled);
        const auto ds = flow::dinic(scaled);
        EXPECT_EQ(flow::check_flow(scaled, ps,
                                   1e-9 * std::max(1.0, scaled.max_capacity())),
                  "")
            << "seed " << seed << ", capacities x" << factor;
        EXPECT_NEAR(ps.flow_value, ds.flow_value,
                    1e-9 * std::max(1.0, ds.flow_value))
            << "seed " << seed << ", capacities x" << factor;
      }
    }
  }
  EXPECT_EQ(audited, 150);
}

TEST(PushRelabel, ColdPassParksAndRefreshes) {
  // The cold pass parks excess at height n and refreshes heights during
  // the pass. On a segmentation grid — a source arc into every pixel — a
  // pass without either climbs the flooded excess that cannot reach the
  // sink toward 2n one relabel at a time: 809,408 pushes and relabels
  // here, against 87,154 with both. The bound leaves room for a better
  // refresh rule, not for losing either mechanism. Operation counts are
  // deterministic, so the test is too.
  const graph::FlowNetwork net =
      core::load_batch("grid:side=100,seed=1").front();
  const flow::MaxFlowResult pr = flow::push_relabel(net);
  EXPECT_EQ(flow::check_flow(net, pr), "");
  EXPECT_DOUBLE_EQ(pr.flow_value, flow::dinic(net).flow_value);
  EXPECT_LT(pr.operations, 200000);
}

TEST(CheckFlow, DetectsViolations) {
  const auto g = graph::paper_example_fig5();
  auto r = flow::dinic(g);
  ASSERT_EQ(flow::check_flow(g, r), "");

  auto bad = r;
  bad.edge_flow[0] = 100.0; // over capacity
  EXPECT_NE(flow::check_flow(g, bad), "");

  bad = r;
  bad.edge_flow[1] += 0.5; // conservation broken at n2
  EXPECT_NE(flow::check_flow(g, bad), "");

  bad = r;
  bad.flow_value += 1.0; // wrong value
  EXPECT_NE(flow::check_flow(g, bad), "");
}

TEST(CheckFlow, ValidatesConservationAndCapacity) {
  graph::FlowNetwork net(4, 0, 3);
  net.add_edge(0, 1, 2.0);
  net.add_edge(1, 3, 2.0);
  net.add_edge(0, 2, 1.0);
  net.add_edge(2, 3, 1.0);
  const auto flow_of = [](std::vector<double> edge_flow, double value) {
    flow::MaxFlowResult r;
    r.edge_flow = std::move(edge_flow);
    r.flow_value = value;
    return r;
  };

  const std::vector<double> good{2.0, 2.0, 1.0, 1.0};
  EXPECT_EQ(flow::check_flow(net, flow_of(good, 3.0)), "");

  std::vector<double> over = good;
  over[0] = 2.5; // above capacity
  EXPECT_NE(flow::check_flow(net, flow_of(over, 3.5)), "");

  std::vector<double> leaky = good;
  leaky[1] = 1.0; // vertex 1 no longer conserves
  EXPECT_NE(flow::check_flow(net, flow_of(leaky, 2.0)), "");

  EXPECT_NE(flow::check_flow(net, flow_of(good, 2.0)), ""); // wrong value
  EXPECT_NE(flow::check_flow(net, flow_of({1.0}, 1.0)), ""); // shape
}

namespace {

/// The flow `r` minus one s-t path of its positive-flow edges, by that
/// path's bottleneck: still a feasible flow, and below the maximum when
/// `r` is one. The path is found by a BFS over edges carrying flow, which
/// reaches t whenever the value is positive (flow decomposition).
flow::MaxFlowResult minus_one_path(const graph::FlowNetwork& net,
                                   flow::MaxFlowResult r) {
  const graph::Incidence inc = graph::incidence(net);
  std::vector<int> via(net.num_vertices(), -1); // edge that reached v
  std::vector<int> queue{net.source()};
  via[net.source()] = net.num_edges();
  for (size_t i = 0; i < queue.size() && via[net.sink()] < 0; ++i)
    for (int arc : inc.at(queue[i])) {
      const int e = arc >> 1;
      const int to = net.edge(e).to;
      if (!(arc & 1) && r.edge_flow[e] > 0.0 && via[to] < 0) {
        via[to] = e;
        queue.push_back(to);
      }
    }
  if (via[net.sink()] < 0) {
    ADD_FAILURE() << "no flow path in a positive flow";
    return r;
  }
  double bottleneck = r.flow_value;
  for (int v = net.sink(); v != net.source(); v = net.edge(via[v]).from)
    bottleneck = std::min(bottleneck, r.edge_flow[via[v]]);
  for (int v = net.sink(); v != net.source(); v = net.edge(via[v]).from)
    r.edge_flow[via[v]] -= bottleneck;
  r.flow_value -= bottleneck;
  return r;
}

} // namespace

TEST(CheckFlow, RejectsFeasibleFlowsBelowTheMaximum) {
  // The min-cut half of the check: a feasible flow passes the capacity,
  // conservation and value tests, so only the residual search from s tells
  // it from a maximum one. Two feasible flows per shape: the zero flow, and
  // a maximum flow with one of its paths' flow taken back out.
  const std::vector<std::pair<const char*, graph::FlowNetwork>> instances = {
      {"grid", core::load_batch("grid:side=12,seed=4").front()},
      {"gridflow", graph::gridflow(20, 16, 16, 4)},
      {"rmat", graph::rmat(64, 400, {}, 4)},
      {"layered", graph::layered_random(6, 8, 3, 12, 4)},
  };
  for (const auto& [name, net] : instances) {
    const flow::MaxFlowResult max = flow::dinic(net);
    ASSERT_GT(max.flow_value, 0.0) << name;
    ASSERT_EQ(flow::check_flow(net, max), "") << name;

    flow::MaxFlowResult zero;
    zero.edge_flow.assign(net.num_edges(), 0.0);
    const std::string zero_err = flow::check_flow(net, zero);
    EXPECT_EQ(zero_err.rfind("not maximum: ", 0), 0u) << name << ": " << zero_err;

    const flow::MaxFlowResult less = minus_one_path(net, max);
    ASSERT_LT(less.flow_value, max.flow_value) << name;
    const std::string less_err = flow::check_flow(net, less);
    EXPECT_EQ(less_err.rfind("not maximum: ", 0), 0u) << name << ": " << less_err;
  }
}

TEST(CheckFlow, RejectsNonFiniteFlows) {
  const auto g = graph::paper_example_fig5();
  const auto r = flow::dinic(g);
  ASSERT_EQ(flow::check_flow(g, r), "");
  for (const double bad_value : {std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity()}) {
    auto bad = r;
    bad.flow_value = bad_value;
    EXPECT_NE(flow::check_flow(g, bad), "") << bad_value;

    // Non-finite everywhere: no bound or conservation comparison may
    // pass it as feasible.
    bad = r;
    for (double& f : bad.edge_flow) f = bad_value;
    bad.flow_value = bad_value;
    EXPECT_NE(flow::check_flow(g, bad), "") << bad_value;

    bad = r;
    bad.edge_flow[2] = bad_value;
    EXPECT_NE(flow::check_flow(g, bad), "") << bad_value;
  }
}

TEST(Dinic, DeepPathSolvesWithoutExhaustingTheStack) {
  // One s-t path of 400k arcs. Every augmenting path descends through all
  // of them, so a DFS that recurses once per path vertex overflows the
  // default stack here. The cold solve, the delta re-augment and both
  // sharded routes (direct at one shard, regions + refinement at two) all
  // run the Dinic augmenter.
  constexpr int kVertices = 400000;
  constexpr int kMiddle = kVertices / 2;
  graph::FlowNetwork net(kVertices, 0, kVertices - 1);
  for (int v = 0; v + 1 < kVertices; ++v)
    net.add_edge(v, v + 1, v == kMiddle ? 3.0 : 5.0);

  const flow::MaxFlowResult cold = flow::dinic(net);
  EXPECT_EQ(cold.flow_value, 3.0);
  EXPECT_EQ(cold.operations, 1);
  EXPECT_EQ(flow::check_flow(net, cold), "");

  // Raising the bottleneck re-augments along the whole path.
  flow::CapacityDelta delta;
  delta.edits = {{kMiddle, 5.0}};
  graph::FlowNetwork raised = net;
  delta.apply(raised);
  const flow::MaxFlowResult warm = flow::dinic_delta(raised, delta, cold);
  EXPECT_EQ(warm.flow_value, 5.0);
  EXPECT_EQ(warm.metrics.delta_solves, 1);
  EXPECT_EQ(flow::check_flow(raised, warm), "");

  for (const int shards : {1, 2}) {
    core::ShardOptions opt;
    opt.shards = shards;
    opt.deterministic = true;
    const flow::MaxFlowResult r = core::ShardedSolver(opt).solve(net);
    EXPECT_EQ(r.flow_value, 3.0) << shards << " shards";
    EXPECT_EQ(flow::check_flow(net, r), "") << shards << " shards";
  }
}

namespace {

/// `net` with its vertices renumbered by a random permutation (the
/// terminals move with them) and its edges in a random order.
graph::FlowNetwork renumbered(const graph::FlowNetwork& net,
                              std::mt19937_64& rng) {
  std::vector<int> perm(net.num_vertices()), order(net.num_edges());
  std::iota(perm.begin(), perm.end(), 0);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<graph::Edge> edges;
  edges.reserve(order.size());
  for (const int e : order) {
    const graph::Edge& x = net.edge(e);
    edges.push_back({perm[x.from], perm[x.to], x.capacity});
  }
  return graph::FlowNetwork(net.num_vertices(), perm[net.source()],
                            perm[net.sink()], std::move(edges));
}

/// `r` is a maximum flow of `net`: its value is edmonds_karp's and its edge
/// flows, in input ids, pass check_flow.
void expect_exact(const graph::FlowNetwork& net, const flow::MaxFlowResult& r,
                  const std::string& what) {
  const double exact = flow::edmonds_karp(net).flow_value;
  EXPECT_LE(std::abs(r.flow_value - exact), 1e-9 * std::max(1.0, exact))
      << what << ": " << r.flow_value << " vs " << exact;
  EXPECT_EQ(flow::check_flow(net, r), "") << what;
}

} // namespace

TEST(ArcLayout, EveryExactKernelAnswersAnyVertexNumberingAndEdgeOrder) {
  // The kernels walk a breadth-first-from-the-sink arc layout, whatever
  // the input numbering: each shape, under 4 random vertex renumberings
  // and edge orders, must answer edmonds_karp's value through every exact
  // entry point, with edge flows that check out in the input's own ids.
  graph::FlowNetwork path(300, 0, 299);
  {
    std::mt19937_64 rng(3);
    for (int v = 0; v + 1 < 300; ++v)
      path.add_edge(v, v + 1, 1.0 + static_cast<double>(rng() % 64));
  }
  const std::pair<const char*, graph::FlowNetwork> shapes[] = {
      {"grid", core::load_batch("grid:side=10,seed=3").front()},
      {"gridflow", graph::gridflow(12, 14, 16, 5)},
      {"rmat", graph::rmat(200, 900, {}, 7)},
      {"layered", graph::layered_random(6, 8, 3, 16, 9)},
      {"path", path},
  };
  for (const auto& [shape, base] : shapes) {
    std::mt19937_64 rng(17);
    for (int k = 0; k < 4; ++k) {
      const graph::FlowNetwork net = renumbered(base, rng);
      const std::string what = std::string(shape) + " #" + std::to_string(k);
      for (const auto& [name, solve] : kSolvers)
        expect_exact(net, solve(net), what + " " + name);
      for (const int shards : {2, 3}) {
        core::ShardOptions opt;
        opt.shards = shards;
        opt.num_threads = 2;
        expect_exact(net, core::ShardedSolver(opt).solve(net),
                     what + " sharded k=" + std::to_string(shards));
      }

      // A 10-step edit stream through both kept-residual re-solves: each
      // step scales 1-3 edges by 0.5 or 1.7, so flows are clamped and
      // slack opens.
      for (const bool use_push_relabel : {false, true}) {
        graph::FlowNetwork current = net;
        flow::MaxFlowResult prior = flow::dinic(current);
        flow::DeltaState state;
        for (int step = 0; step < 10; ++step) {
          flow::CapacityDelta d;
          for (int i = 0, edits = 1 + step % 3; i < edits; ++i) {
            const int e = static_cast<int>(rng() % current.num_edges());
            d.edits.push_back(
                {e, current.edge(e).capacity * ((rng() & 1) ? 0.5 : 1.7)});
          }
          d.apply(current);
          flow::MaxFlowResult r =
              use_push_relabel
                  ? flow::push_relabel_resolve(current, d, prior, state)
                  : flow::dinic_resolve(current, d, prior, state);
          EXPECT_EQ(r.metrics.delta_fallbacks, 0) << what;
          r.edge_flow = state.edge_flows(current);
          expect_exact(current, r,
                       what + (use_push_relabel ? " push_relabel" : " dinic") +
                           "_resolve step " + std::to_string(step));
          prior = std::move(r);
        }
      }
    }
  }
}
