// Flow networks, generators, DIMACS I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/dimacs.hpp"
#include "graph/generators.hpp"
#include "graph/network.hpp"
#include "util/cancel.hpp"

namespace graph = aflow::graph;
namespace util = aflow::util;

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

TEST(FlowNetwork, ArcLayoutListsEachEdgeOnceAtEachEndpoint) {
  const auto net = graph::rmat(50, 240, {}, 11);
  const graph::ArcLayout& g = *net.arc_layout();
  const int n = net.num_vertices();
  const size_t m = static_cast<size_t>(net.num_edges());
  ASSERT_EQ(g.position.size(), static_cast<size_t>(n));
  ASSERT_EQ(g.start.size(), static_cast<size_t>(n) + 1);
  ASSERT_EQ(g.head.size(), 2 * m);
  ASSERT_EQ(g.sister.size(), 2 * m);
  ASSERT_EQ(g.forward.size(), m);
  EXPECT_EQ(g.position[net.sink()], 0);
  // The positions are a permutation of the vertices.
  std::vector<int> at(n, -1);
  for (int v = 0; v < n; ++v) at[g.position[v]] = v;
  for (int p = 0; p < n; ++p) EXPECT_GE(at[p], 0) << p;
  // Edge e's forward arc sits among its tail's out-arcs and points at its
  // head; the sister sits among the head's in-arcs and points back.
  std::vector<int> seen(2 * m, 0);
  for (size_t e = 0; e < m; ++e) {
    const int a = g.forward[e];
    const int b = g.sister[a];
    const int u = g.position[net.edge(static_cast<int>(e)).from];
    const int v = g.position[net.edge(static_cast<int>(e)).to];
    EXPECT_GE(a, g.start[u]);
    EXPECT_LT(a, g.in_begin[u]);
    EXPECT_GE(b, g.in_begin[v]);
    EXPECT_LT(b, g.start[v + 1]);
    EXPECT_EQ(g.head[a], v);
    EXPECT_EQ(g.head[b], u);
    EXPECT_EQ(g.sister[b], a);
    ++seen[a];
    ++seen[b];
  }
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(FlowNetwork, ArcLayoutNumbersBreadthFirstFromTheSink) {
  // 0 -> 1 -> 2 -> 3 (the sink) plus 0 -> 2; 4 and 5 are isolated. The
  // search meets 2 from 3, then 1 and 0 from 2 in edge order; the
  // unreached vertices follow in input order.
  graph::FlowNetwork net(6, 0, 3);
  net.add_edge(0, 1, 1.0);
  net.add_edge(1, 2, 1.0);
  net.add_edge(2, 3, 1.0);
  net.add_edge(0, 2, 1.0);
  EXPECT_EQ(net.arc_layout()->position, (std::vector<int>{3, 2, 1, 0, 4, 5}));
}

TEST(FlowNetwork, ArcLayoutIsSharedByCopiesAndKeptByCapacityEdits) {
  graph::FlowNetwork net = graph::paper_example_fig5();
  const graph::FlowNetwork before = net; // copied before the first build
  const std::shared_ptr<const graph::ArcLayout> layout = net.arc_layout();
  EXPECT_EQ(net.arc_layout(), layout); // built once
  EXPECT_EQ(before.arc_layout(), layout);
  const graph::FlowNetwork copy = net;
  EXPECT_EQ(copy.arc_layout(), layout);
  EXPECT_EQ(net.transform_capacities([](double c) { return 2.0 * c; })
                .arc_layout(),
            layout);
  net.set_capacity(0, 7.0);
  EXPECT_EQ(net.arc_layout(), layout);

  // A new edge is a new topology; the copies keep theirs.
  net.add_edge(1, 4, 1.0);
  const std::shared_ptr<const graph::ArcLayout> grown = net.arc_layout();
  EXPECT_NE(grown, layout);
  EXPECT_EQ(grown->forward.size(), 6u);
  EXPECT_EQ(copy.arc_layout(), layout);
  EXPECT_EQ(before.arc_layout(), layout);

  // An independently built network of the same topology has its own.
  EXPECT_NE(graph::paper_example_fig5().arc_layout(), layout);
}

TEST(FlowNetwork, CancelledArcLayoutBuildPublishesNothing) {
  const graph::FlowNetwork net = graph::gridflow(20, 20, 16, 3);
  const util::CancelToken cancelled = util::CancelToken::cancellable();
  cancelled.cancel();
  EXPECT_THROW(net.arc_layout(cancelled), util::CancelledError);
  const std::shared_ptr<const graph::ArcLayout> layout = net.arc_layout();
  ASSERT_NE(layout, nullptr);
  EXPECT_EQ(layout->forward.size(), static_cast<size_t>(net.num_edges()));
  EXPECT_EQ(net.arc_layout(cancelled), layout); // built: no check, no throw
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

TEST(FlowNetwork, RejectsNonFiniteCapacities) {
  // inf passes a bare `capacity > 0` test; flow sums over it become
  // inf - inf = NaN. Every mutator goes through the one edge check.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {inf, -inf, nan}) {
    graph::FlowNetwork net(3, 0, 2);
    EXPECT_THROW(net.add_edge(0, 1, bad), std::invalid_argument) << bad;
    EXPECT_THROW(graph::FlowNetwork(3, 0, 2, {{0, 1, 1.0}, {1, 2, bad}}),
                 std::invalid_argument) << bad;
    net.add_edge(0, 1, 1.0);
    EXPECT_THROW(net.set_capacity(0, bad), std::invalid_argument) << bad;
    EXPECT_DOUBLE_EQ(net.edge(0).capacity, 1.0);
  }
  // A finite capacity that a transform overflows is refused too.
  graph::FlowNetwork big(3, 0, 2);
  big.add_edge(0, 1, 1e308);
  big.add_edge(1, 2, 1e308);
  big.validate();
  EXPECT_THROW(big.transform_capacities([](double c) { return c * 10.0; }),
               std::invalid_argument);
}

TEST(FlowNetwork, MaxCapacityIsKeptByEveryMutator) {
  // max_capacity() is kept current rather than scanned: every mutator
  // must leave it equal to a scan of the edge list.
  const auto scan = [](const graph::FlowNetwork& net) {
    double c = 0.0;
    for (const graph::Edge& e : net.edges()) c = std::max(c, e.capacity);
    return c;
  };
  graph::FlowNetwork net(4, 0, 3);
  EXPECT_EQ(net.max_capacity(), 0.0);
  net.add_edge(0, 1, 2.0);
  net.add_edge(1, 2, 7.5); // the unique maximum
  net.add_edge(2, 3, 3.0);
  EXPECT_EQ(net.max_capacity(), 7.5);

  net.set_capacity(0, 1.0); // lowers an edge below the maximum
  EXPECT_EQ(net.max_capacity(), 7.5);
  net.set_capacity(1, 0.5); // lowers the edge that held it: rescan
  EXPECT_EQ(net.max_capacity(), 3.0);
  EXPECT_EQ(net.max_capacity(), scan(net));
  net.set_capacity(0, 9.0); // raises another edge past it
  EXPECT_EQ(net.max_capacity(), 9.0);
  net.set_capacity(2, 9.0); // a tie...
  net.set_capacity(0, 4.0); // ...survives lowering one of the two
  EXPECT_EQ(net.max_capacity(), 9.0);
  net.set_capacity(2, 9.0); // an unchanged capacity
  EXPECT_EQ(net.max_capacity(), scan(net));
  EXPECT_THROW(net.set_capacity(2, -1.0), std::invalid_argument);
  EXPECT_EQ(net.max_capacity(), 9.0); // a refused edit changes nothing

  const graph::FlowNetwork listed(
      4, 0, 3, {{0, 1, 4.0}, {1, 2, 11.0}, {2, 3, 6.0}});
  EXPECT_EQ(listed.max_capacity(), 11.0);
  const graph::FlowNetwork scaled =
      listed.transform_capacities([](double c) { return 20.0 - c; });
  EXPECT_EQ(scaled.max_capacity(), 16.0);
  EXPECT_EQ(scaled.max_capacity(), scan(scaled));
  graph::FlowNetwork copy = scaled;
  copy.set_capacity(0, 1.0);
  EXPECT_EQ(copy.max_capacity(), 14.0);
  EXPECT_EQ(scaled.max_capacity(), 16.0);
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

TEST(Dimacs, ReaderRejectsNonFiniteCapacities) {
  for (const char* cap : {"inf", "-inf", "nan", "infinity"}) {
    std::stringstream ss(std::string("p max 3 2\nn 1 s\nn 3 t\na 1 2 4\n"
                                     "a 2 3 ") + cap + "\n");
    try {
      graph::read_dimacs(ss);
      ADD_FAILURE() << "capacity " << cap << " accepted";
    } catch (const std::exception& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("non-finite arc capacity at line 5"),
                std::string::npos) << what;
    }
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

namespace {

/// The message read_dimacs throws for `text` ("" when it parses).
std::string dimacs_error(const std::string& text) {
  std::istringstream in(text);
  try {
    graph::read_dimacs(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

} // namespace

TEST(Dimacs, ReaderRefusesTrailingFieldsAndNonDecimalCapacities) {
  // Each probe used to be read as a guess: capacity 5, capacity 4, capacity
  // 16, and a problem or node line with a stray field ignored.
  const std::string head = "p max 3 2\nn 1 s\nn 3 t\n";
  const std::pair<std::string, std::string> probes[] = {
      {head + "a 1 2 5 7\na 2 3 4\n",
       "trailing characters after the last field at line 4"},
      {head + "a 1 2 5\na 2 3 4abc\n",
       "arc capacity is not a decimal number at line 5"},
      {head + "a 1 2 5\na 2 3 0x10\n",
       "arc capacity is not a decimal number at line 5"},
      {"p max 3 2 9\nn 1 s\nn 3 t\na 1 2 5\na 2 3 4\n",
       "trailing characters after the last field at line 1"},
      {"p max 3 2\nn 1 source\nn 3 t\na 1 2 5\na 2 3 4\n",
       "node role must be 's' or 't' at line 2"},
  };
  for (const auto& [text, what] : probes)
    EXPECT_NE(dimacs_error(text).find("read_dimacs: " + what),
              std::string::npos)
        << text << " -> '" << dimacs_error(text) << "'";

  // Every decimal form strtod reads is still a capacity, and trailing
  // whitespace (a CRLF ending included) is not a field.
  std::istringstream ok(
      "p max 3 6 \t\r\nn 1 s\t\nn 3 t \n"
      "a 1 2 +5\na 1 2 5.\r\na 1 2 .5e1\na 2 3 1E3 \na 2 3 007\n"
      "a 2 3 999999999999999\t\r\n");
  const graph::FlowNetwork net = graph::read_dimacs(ok);
  ASSERT_EQ(net.num_edges(), 6);
  const double caps[] = {5.0, 5.0, 5.0, 1000.0, 7.0, 999999999999999.0};
  for (int e = 0; e < 6; ++e) EXPECT_EQ(net.edge(e).capacity, caps[e]) << e;
}

namespace {

constexpr size_t kReadBlock = size_t{1} << 20; // read_dimacs's block size

/// A DIMACS body for `net` that spans three read blocks and more: arcs, a
/// comment line longer than one block, then the rest of the arcs. Every
/// third arc line ends in CRLF and the last one has no newline.
/// `line_start` holds each line's offset in the body.
struct LongRendition {
  std::string body;
  std::vector<size_t> line_start;
};

LongRendition long_rendition(const graph::FlowNetwork& net) {
  LongRendition r;
  const auto add = [&](const std::string& line) {
    r.line_start.push_back(r.body.size());
    r.body += line;
  };
  add("p max " + std::to_string(net.num_vertices()) + " " +
      std::to_string(net.num_edges()) + "\n");
  add("n " + std::to_string(net.source() + 1) + " s\n");
  add("n " + std::to_string(net.sink() + 1) + " t\r\n");
  for (int e = 0; e < net.num_edges(); ++e) {
    if (e == net.num_edges() * 11 / 20)
      add("c " + std::string(kReadBlock + 4096, 'x') + "\n");
    std::ostringstream line;
    line.precision(std::numeric_limits<double>::max_digits10);
    line << "a " << net.edge(e).from + 1 << ' ' << net.edge(e).to + 1 << ' '
         << net.edge(e).capacity;
    add(line.str() + (e + 1 == net.num_edges() ? ""
                      : e % 3 == 0              ? "\r\n"
                                                : "\n"));
  }
  return r;
}

/// Integral capacities (the exact in-place path) and capacities strtod
/// converts: fractions, 16+ digits, 17-digit doubles.
graph::FlowNetwork long_network() {
  graph::FlowNetwork net(1000, 0, 999);
  for (int e = 0; e < 120000; ++e) {
    const int from = e % 997, to = (e * 7 + 1) % 1000;
    double cap = 1.0 + e % 500;
    if (e % 5 == 1) cap = 0.5 + e % 97;
    if (e % 5 == 2) cap = 1.0 / (e + 3);
    if (e % 5 == 3) cap = 999999999999999.0 + e % 3; // 15 and 16 digits
    if (from != to) net.add_edge(from, to, cap);
  }
  return net;
}

/// The first difference between two networks, or "" when they agree edge
/// for edge.
std::string first_difference(const graph::FlowNetwork& a,
                             const graph::FlowNetwork& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges() ||
      a.source() != b.source() || a.sink() != b.sink())
    return "shape differs";
  for (int e = 0; e < a.num_edges(); ++e)
    if (a.edge(e).from != b.edge(e).from || a.edge(e).to != b.edge(e).to ||
        a.edge(e).capacity != b.edge(e).capacity)
      return "edge " + std::to_string(e) + " differs";
  return "";
}

} // namespace

TEST(Dimacs, ReaderBlockBoundaryBattery) {
  // A leading comment of 0..23 bytes more shifts every block boundary
  // across a whole arc line, so boundaries fall at a line start, inside a
  // field, between '\r' and '\n', and inside the long comment.
  const graph::FlowNetwork net = long_network();
  const LongRendition r = long_rendition(net);
  ASSERT_GT(r.body.size(), 3 * kReadBlock);
  int at_line_start = 0, mid_line = 0, inside_crlf = 0;
  for (size_t pad = 0; pad < 24; ++pad) {
    const std::string text = "c" + std::string(pad, ' ') + "\n" + r.body;
    for (size_t b = kReadBlock; b < text.size(); b += kReadBlock) {
      at_line_start += text[b - 1] == '\n';
      mid_line += text[b - 1] != '\n';
      inside_crlf += text[b - 1] == '\r';
    }
    std::istringstream in(text);
    EXPECT_EQ(first_difference(graph::read_dimacs(in), net), "")
        << "pad " << pad;
  }
  EXPECT_GT(at_line_start, 0);
  EXPECT_GT(mid_line, 0);
  EXPECT_GT(inside_crlf, 0);

  // A malformed arc after the first block names its own line: one that
  // straddles the first boundary, and one inside the fourth block.
  const std::string pad_line = "c\n";
  for (const size_t offset : {kReadBlock, 3 * kReadBlock + 1000}) {
    const size_t at = offset - pad_line.size();
    const auto next = std::upper_bound(r.line_start.begin(),
                                       r.line_start.end(), at);
    const size_t index = static_cast<size_t>(next - r.line_start.begin()) - 1;
    ASSERT_EQ(r.body[r.line_start[index]], 'a');
    ASSERT_LT(pad_line.size() + r.line_start[index], offset); // mid-line
    std::string text = pad_line + r.body;
    text.insert(pad_line.size() + r.line_start[index] + 1, " 9");
    // Line 1 is the pad comment; body line i is line i + 2.
    EXPECT_NE(dimacs_error(text).find("at line " + std::to_string(index + 2)),
              std::string::npos)
        << dimacs_error(text);
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

namespace {

/// Expects `make` to refuse its shape with std::invalid_argument naming
/// `what` (a wrapped int size surfaces as some other, misleading error).
template <typename Make>
void expect_size_refused(Make make, const std::string& what) {
  try {
    make();
    ADD_FAILURE() << what << ": shape accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

} // namespace

// 65536 * 65536 wraps to 0 in int arithmetic.
TEST(Generators, GridCutGraphRefusesSizesBeyondTheIntIndex) {
  expect_size_refused(
      [] { return graph::grid_cut_graph(65536, 65536, {}, {}, 1.0); },
      "grid vertex count");
}

TEST(Generators, LayeredRandomRefusesSizesBeyondTheIntIndex) {
  expect_size_refused(
      [] { return graph::layered_random(65536, 65536, 1, 5, 1); },
      "layered vertex count");
}

TEST(Generators, GridflowRefusesSizesBeyondTheIntIndex) {
  expect_size_refused([] { return graph::gridflow(65536, 65536, 5, 1); },
                      "gridflow vertex count");
}

TEST(Generators, RmatRefusesEdgeCountsBeyondTheIntIndex) {
  expect_size_refused([] { return graph::rmat_sparse(4, 1, 1e10); },
                      "rmat_sparse edge count");
  expect_size_refused([] { return graph::rmat_dense(4, 1, 1e10); },
                      "rmat_dense edge count");
}

TEST(Generators, UniformRandomRefusesMoreEdgesThanVertexPairs) {
  // Two vertices have exactly two distinct non-loop pairs.
  EXPECT_EQ(graph::uniform_random(2, 2, 5, 1).num_edges(), 2);
  expect_size_refused([] { return graph::uniform_random(2, 3, 5, 1); },
                      "distinct non-loop vertex pairs");
}
