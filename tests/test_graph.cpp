// Flow networks, generators, DIMACS I/O.
#include <gtest/gtest.h>

#include <sstream>

#include "graph/dimacs.hpp"
#include "graph/generators.hpp"
#include "graph/network.hpp"

namespace graph = aflow::graph;

TEST(FlowNetwork, BasicConstruction) {
  graph::FlowNetwork net(4, 0, 3);
  const int e0 = net.add_edge(0, 1, 2.5);
  const int e1 = net.add_edge(1, 3, 1.0);
  EXPECT_EQ(e0, 0);
  EXPECT_EQ(e1, 1);
  EXPECT_EQ(net.num_edges(), 2);
  EXPECT_EQ(net.edge(e1).from, 1);
  EXPECT_EQ(net.edge(e1).to, 3);
  EXPECT_DOUBLE_EQ(net.max_capacity(), 2.5);
  net.validate();
}

TEST(FlowNetwork, RejectsMalformedInput) {
  EXPECT_THROW(graph::FlowNetwork(1, 0, 0), std::invalid_argument);
  EXPECT_THROW(graph::FlowNetwork(3, 1, 1), std::invalid_argument);
  EXPECT_THROW(graph::FlowNetwork(3, 0, 5), std::invalid_argument);
  graph::FlowNetwork net(3, 0, 2);
  EXPECT_THROW(net.add_edge(0, 0, 1.0), std::invalid_argument); // self loop
  EXPECT_THROW(net.add_edge(0, 1, 0.0), std::invalid_argument); // zero cap
  EXPECT_THROW(net.add_edge(0, 9, 1.0), std::invalid_argument); // range
}

TEST(FlowNetwork, Reachability) {
  graph::FlowNetwork net(4, 0, 3);
  net.add_edge(0, 1, 1.0);
  net.add_edge(1, 3, 1.0);
  // vertex 2 is isolated
  const auto fwd = graph::reachable_from(net, 0);
  EXPECT_TRUE(fwd[0] && fwd[1] && fwd[3]);
  EXPECT_FALSE(fwd[2]);
  const auto bwd = graph::reaches_to(net, 3);
  EXPECT_TRUE(bwd[0] && bwd[1] && bwd[3]);
  EXPECT_FALSE(bwd[2]);
}

TEST(FlowNetwork, IncidenceListsEachEdgeOncePerEndpoint) {
  const auto net = graph::rmat(50, 240, {}, 11);
  const graph::Incidence inc = graph::incidence(net);
  ASSERT_EQ(inc.start.size(), static_cast<size_t>(net.num_vertices()) + 1);
  EXPECT_EQ(inc.arcs.size(), 2 * static_cast<size_t>(net.num_edges()));
  // Arc 2e sits at edge e's tail, arc 2e+1 at its head, in edge order.
  std::vector<int> seen(inc.arcs.size(), 0);
  for (int v = 0; v < net.num_vertices(); ++v) {
    int last_edge = -1;
    for (const int a : inc.at(v)) {
      const graph::Edge& e = net.edge(a >> 1);
      EXPECT_EQ((a & 1) ? e.to : e.from, v);
      EXPECT_GT(a >> 1, last_edge);
      last_edge = a >> 1;
      ++seen[a];
    }
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(FlowNetwork, EdgeListConstructorChecksEveryEdge) {
  const graph::FlowNetwork net(3, 0, 2, {{0, 1, 2.0}, {1, 2, 3.0}});
  EXPECT_EQ(net.num_edges(), 2);
  EXPECT_DOUBLE_EQ(net.edge(1).capacity, 3.0);
  EXPECT_THROW(graph::FlowNetwork(3, 0, 2, {{0, 0, 1.0}}),
               std::invalid_argument); // self loop
  EXPECT_THROW(graph::FlowNetwork(3, 0, 2, {{0, 1, 0.0}}),
               std::invalid_argument); // non-positive capacity
  EXPECT_THROW(graph::FlowNetwork(3, 0, 2, {{0, 7, 1.0}}),
               std::invalid_argument); // endpoint out of range
}

TEST(FlowNetwork, PaperExamples) {
  const auto fig5 = graph::paper_example_fig5();
  EXPECT_EQ(fig5.num_vertices(), 5);
  EXPECT_EQ(fig5.num_edges(), 5);
  EXPECT_DOUBLE_EQ(fig5.max_capacity(), 3.0);
  fig5.validate();

  const auto fig15 = graph::paper_example_fig15();
  EXPECT_EQ(fig15.num_edges(), 5);
  fig15.validate();
}

TEST(Generators, RmatRespectsSizeAndDeterminism) {
  const auto g1 = graph::rmat(64, 256, {}, 42);
  const auto g2 = graph::rmat(64, 256, {}, 42);
  EXPECT_EQ(g1.num_vertices(), 64);
  EXPECT_NEAR(g1.num_edges(), 256, 16); // dedup can fall slightly short
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
  for (int e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.edge(e).from, g2.edge(e).from);
    EXPECT_EQ(g1.edge(e).to, g2.edge(e).to);
    EXPECT_DOUBLE_EQ(g1.edge(e).capacity, g2.edge(e).capacity);
  }
  g1.validate();
  // Sink reachable from source by construction.
  EXPECT_TRUE(graph::reachable_from(g1, g1.source())[g1.sink()]);
}

TEST(Generators, RmatDenseAndSparseRegimes) {
  const auto dense = graph::rmat_dense(320, 1);
  const auto sparse = graph::rmat_sparse(320, 1);
  // Dense: ~8.68e-3 * n^2 = ~889 edges; sparse: ~8n = 2560.
  EXPECT_GT(dense.num_edges(), 700);
  EXPECT_LT(dense.num_edges(), 950);
  EXPECT_GT(sparse.num_edges(), 2200);
  EXPECT_LT(sparse.num_edges(), 2600);
}

TEST(Generators, RmatSkewsDegrees) {
  // With a = 0.57 the low-numbered vertices should accumulate more edges.
  const auto g = graph::rmat(256, 2048, {}, 7);
  long long low = 0, high = 0;
  for (const auto& e : g.edges()) {
    if (e.from < 128) ++low;
    else ++high;
  }
  EXPECT_GT(low, high);
}

TEST(Generators, GridCutGraphShape) {
  const int h = 3, w = 4;
  std::vector<double> src(h * w, 0.0), snk(h * w, 0.0);
  src[0] = 5.0;
  snk[11] = 5.0;
  const auto g = graph::grid_cut_graph(h, w, src, snk, 1.0);
  EXPECT_EQ(g.num_vertices(), h * w + 2);
  // Lattice arcs: 2*(h*(w-1) + (h-1)*w) = 2*(9+8) = 34, plus 2 terminal arcs.
  EXPECT_EQ(g.num_edges(), 36);
  g.validate();
}

TEST(Generators, LayeredRandomIsLayered) {
  const auto g = graph::layered_random(4, 5, 3, 10, 3);
  EXPECT_EQ(g.num_vertices(), 2 + 4 * 5);
  g.validate();
  for (const auto& e : g.edges()) {
    if (e.from == g.source() || e.to == g.sink()) continue;
    const int from_layer = (e.from - 1) / 5;
    const int to_layer = (e.to - 1) / 5;
    EXPECT_EQ(to_layer, from_layer + 1);
  }
}

TEST(Generators, UniformRandomConnectsTerminals) {
  const auto g = graph::uniform_random(30, 90, 20, 5);
  int source_out = 0, sink_in = 0;
  for (const auto& e : g.edges()) {
    source_out += e.from == g.source();
    sink_in += e.to == g.sink();
  }
  EXPECT_GE(source_out, 1);
  EXPECT_GE(sink_in, 1);
  g.validate();
}

TEST(Dimacs, RoundTrip) {
  const auto g = graph::paper_example_fig5();
  std::stringstream ss;
  graph::write_dimacs(ss, g);
  const auto g2 = graph::read_dimacs(ss);
  ASSERT_EQ(g2.num_vertices(), g.num_vertices());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  EXPECT_EQ(g2.source(), g.source());
  EXPECT_EQ(g2.sink(), g.sink());
  for (int e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(g2.edge(e).from, g.edge(e).from);
    EXPECT_EQ(g2.edge(e).to, g.edge(e).to);
    EXPECT_DOUBLE_EQ(g2.edge(e).capacity, g.edge(e).capacity);
  }
}

TEST(Dimacs, ParsesStandardInput) {
  std::stringstream ss(
      "c tiny example\n"
      "p max 3 2\n"
      "n 1 s\n"
      "n 3 t\n"
      "a 1 2 7\n"
      "a 2 3 4\n");
  const auto g = graph::read_dimacs(ss);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.edge(0).capacity, 7.0);
}

TEST(Dimacs, RejectsMalformedInput) {
  {
    std::stringstream ss("a 1 2 3\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error); // no problem line
  }
  {
    std::stringstream ss("p max 3 1\nn 1 s\na 1 2 3\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error); // no sink
  }
  {
    std::stringstream ss("p max 3 1\nn 1 s\nn 2 t\nn 3 s\na 1 2 3\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error); // dup source
  }
  {
    std::stringstream ss("p max 2 1\nn 1 s\nn 2 t\na 1 9 3\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error); // range
  }
}

TEST(Dimacs, RejectsDuplicateProblemLine) {
  // A second 'p' line silently overwriting n/m would reinterpret every
  // following arc; it must be an error.
  std::stringstream ss(
      "p max 3 2\n"
      "p max 5 2\n"
      "n 1 s\nn 3 t\n"
      "a 1 2 7\na 2 3 4\n");
  EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error);
}

TEST(Dimacs, RejectsSourceEqualsSink) {
  std::stringstream ss(
      "p max 3 1\n"
      "n 2 s\nn 2 t\n"
      "a 1 2 7\n");
  EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error);
}

TEST(Dimacs, RejectsArcCountMismatch) {
  { // fewer arcs than declared (truncated file)
    std::stringstream ss("p max 3 2\nn 1 s\nn 3 t\na 1 2 7\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error);
  }
  { // more arcs than declared
    std::stringstream ss(
        "p max 3 1\nn 1 s\nn 3 t\na 1 2 7\na 2 3 4\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error);
  }
}

TEST(Dimacs, RoundTripPreservesFullCapacityPrecision) {
  // Capacities >= 1e6 and with fine fractional parts lose digits at the
  // default 6-significant-digit stream precision; the writer must emit
  // max_digits10 so a write -> read round trip is bit-exact.
  graph::FlowNetwork g(4, 0, 3);
  g.add_edge(0, 1, 1234567.0);
  g.add_edge(1, 2, 16777216.125);
  g.add_edge(2, 3, 0.30000000000000004); // 0.1 + 0.2: needs all 17 digits
  g.add_edge(0, 2, 9007199254740992.0);  // 2^53
  std::stringstream ss;
  graph::write_dimacs(ss, g);
  const auto g2 = graph::read_dimacs(ss);
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (int e = 0; e < g.num_edges(); ++e)
    EXPECT_EQ(g2.edge(e).capacity, g.edge(e).capacity)
        << "capacity corrupted on edge " << e;
}

TEST(Dimacs, ReaderSkipSemantics) {
  // Self loops and non-positive capacities are dropped silently, and the
  // declared arc count must still match the a-lines seen (not the arcs
  // kept).
  const std::string text =
      "c skip semantics\n"
      "p max 4 4\n"
      "n 1 s\n"
      "n 4 t\n"
      "a 1 2 5\n"
      "a 2 2 9\n" // self loop: dropped
      "a 2 3 0\n" // zero capacity: dropped
      "a 3 4 6\n";
  std::stringstream in(text);
  const graph::FlowNetwork net = graph::read_dimacs(in);
  EXPECT_EQ(net.num_edges(), 2);
  EXPECT_EQ(net.edge(1).to, 3);
}

TEST(Dimacs, ReaderRejectsMalformedFields) {
  { // truncated: fewer a-lines than declared
    std::stringstream ss("p max 3 2\nn 1 s\nn 3 t\na 1 2 7\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error);
  }
  { // arc endpoint out of range
    std::stringstream ss("p max 2 1\nn 1 s\nn 2 t\na 1 9 3\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error);
  }
  { // no problem line
    std::stringstream ss("a 1 2 3\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error);
  }
  { // garbage field
    std::stringstream ss("p max 2 1\nn 1 s\nn 2 t\na 1 2 bogus\n");
    EXPECT_THROW(graph::read_dimacs(ss), std::runtime_error);
  }
}

TEST(Dimacs, ReaderDiagnosesTruncatedInput) {
  { // truncated at a line boundary: the error must reconcile the declared
    // arc count against what was actually read, and name the last line, so
    // a cut-off multi-gigabyte transfer is diagnosable from the message.
    std::stringstream ss("p max 4 3\nn 1 s\nn 4 t\na 1 2 7\na 2 3 4\n");
    try {
      graph::read_dimacs(ss);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("declares 3"), std::string::npos) << msg;
      EXPECT_NE(msg.find("contains 2"), std::string::npos) << msg;
      EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
    }
  }
  { // truncated mid-line: the arc line itself is incomplete; the error must
    // name the offending line number.
    std::stringstream ss("p max 4 3\nn 1 s\nn 4 t\na 1 2 7\na 2 3");
    try {
      graph::read_dimacs(ss);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("malformed arc line"), std::string::npos) << msg;
      EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
    }
  }
}

TEST(Dimacs, ClassicReaderRefusesHugeArcCounts) {
  // >= 2^31 arcs cannot be held by FlowNetwork's int edge ids; the reader
  // must refuse at the problem line, before consuming gigabytes.
  std::stringstream ss("p max 4 2147483648\nn 1 s\nn 4 t\n");
  try {
    graph::read_dimacs(ss);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("exceeds the int edge index"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("line 1"), std::string::npos) << msg;
  }
}

TEST(Dimacs, ReaderRejectsOutOfRangeNodeDesignators) {
  // A designator must name a vertex in 1..N; a wide id must not be cast
  // down into a valid one (4294967297 wraps to vertex 0 as a 32-bit int).
  for (const std::string bad : {"n 4294967297 s\nn 4 t\n",
                                "n 1 s\nn 5 t\n", "n 0 s\nn 4 t\n",
                                "n 1 s\nn -3 t\n"}) {
    std::stringstream ss("p max 4 1\n" + bad + "a 1 4 2\n");
    try {
      graph::read_dimacs(ss);
      ADD_FAILURE() << "expected std::runtime_error for " << bad;
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("outside 1..4"), std::string::npos) << msg;
      EXPECT_NE(msg.find("line "), std::string::npos) << msg;
    }
  }
}

TEST(Generators, GridflowIsDeterministicAndWellFormed) {
  const auto a = graph::gridflow(6, 9, 16, 3);
  const auto b = graph::gridflow(6, 9, 16, 3);
  const auto c = graph::gridflow(6, 9, 16, 4);
  const int h = 6, w = 9;
  EXPECT_EQ(a.num_vertices(), h * w + 2);
  EXPECT_EQ(a.num_edges(), 2 * h + h * (w - 1) + 2 * w * (h - 1));
  EXPECT_EQ(a.source(), h * w);
  EXPECT_EQ(a.sink(), h * w + 1);
  a.validate();
  ASSERT_EQ(a.num_edges(), b.num_edges());
  bool differs = false;
  for (int e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).from, b.edge(e).from);
    EXPECT_DOUBLE_EQ(a.edge(e).capacity, b.edge(e).capacity);
    if (a.edge(e).capacity != c.edge(e).capacity) differs = true;
  }
  EXPECT_TRUE(differs) << "seed must matter";
}

TEST(Generators, GridflowDimacsRenditionIsEdgeForEdgeIdentical) {
  // The in-memory generator and the O(1)-memory DIMACS emitter share one
  // walk, so the two renditions must agree edge for edge — that identity is
  // what lets the sharded-solve battery compare the file path against
  // the in-memory path on "the same" instance.
  const auto net = graph::gridflow(7, 5, 12, 9);
  std::stringstream ss;
  graph::write_gridflow_dimacs(ss, 7, 5, 12, 9);
  const graph::FlowNetwork parsed = graph::read_dimacs(ss);
  ASSERT_EQ(parsed.num_vertices(), net.num_vertices());
  ASSERT_EQ(parsed.num_edges(), net.num_edges());
  EXPECT_EQ(parsed.source(), net.source());
  EXPECT_EQ(parsed.sink(), net.sink());
  for (int e = 0; e < net.num_edges(); ++e) {
    EXPECT_EQ(parsed.edge(e).from, net.edge(e).from) << e;
    EXPECT_EQ(parsed.edge(e).to, net.edge(e).to) << e;
    EXPECT_EQ(parsed.edge(e).capacity, net.edge(e).capacity) << e;
  }
}
