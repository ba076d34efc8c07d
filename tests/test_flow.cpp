// Classical max-flow solvers: known answers, feasibility, cross-agreement,
// and max-flow = min-cut duality.
#include <gtest/gtest.h>

#include "flow/maxflow.hpp"
#include "graph/generators.hpp"

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
  // source. This audit sweeps ~100 random instances — including sparse
  // ones with large source-side regions that cannot reach the sink, where
  // the gap heuristic lifts whole height levels past n — and asserts true
  // conservation at every non-terminal vertex plus value agreement with
  // Dinic's independent implementation.
  int audited = 0;
  for (int seed = 1; seed <= 25; ++seed) {
    const graph::FlowNetwork nets[] = {
        graph::rmat_sparse(120, seed, 5.0), // stranded-excess-prone
        graph::rmat_dense(60, seed),
        graph::layered_random(6, 10, 3, 16, seed),
        graph::uniform_random(90, 360, 32, seed),
    };
    for (const auto& net : nets) {
      ++audited;
      const auto pr = flow::push_relabel(net);
      const auto dn = flow::dinic(net);
      EXPECT_EQ(flow::check_flow(net, pr), "")
          << "seed " << seed << ": push-relabel left a preflow (stranded "
             "excess) or violated a capacity";
      EXPECT_DOUBLE_EQ(pr.flow_value, dn.flow_value) << "seed " << seed;
    }
  }
  EXPECT_EQ(audited, 100);
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
