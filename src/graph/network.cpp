#include "graph/network.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>

namespace aflow::graph {

FlowNetwork::FlowNetwork(int num_vertices, int source, int sink)
    : num_vertices_(num_vertices), source_(source), sink_(sink) {
  if (num_vertices < 2)
    throw std::invalid_argument("FlowNetwork: need at least source and sink");
  if (source < 0 || source >= num_vertices || sink < 0 || sink >= num_vertices)
    throw std::invalid_argument("FlowNetwork: source/sink out of range");
  if (source == sink)
    throw std::invalid_argument("FlowNetwork: source must differ from sink");
}

FlowNetwork::FlowNetwork(int num_vertices, int source, int sink,
                         std::vector<Edge> edges)
    : FlowNetwork(num_vertices, source, sink) {
  if (edges.size() > static_cast<size_t>(std::numeric_limits<int>::max()))
    throw std::length_error(
        "FlowNetwork: edge count exceeds the int edge index");
  for (const Edge& e : edges) check_edge(e);
  edges_ = std::move(edges);
}

void FlowNetwork::check_edge(const Edge& e) const {
  if (e.from < 0 || e.from >= num_vertices_ || e.to < 0 ||
      e.to >= num_vertices_)
    throw std::invalid_argument("FlowNetwork::add_edge: vertex out of range");
  if (e.from == e.to)
    throw std::invalid_argument("FlowNetwork::add_edge: self loops not supported");
  if (!(e.capacity > 0.0))
    throw std::invalid_argument("FlowNetwork::add_edge: capacity must be positive");
}

int FlowNetwork::add_edge(int from, int to, double capacity) {
  const Edge edge{from, to, capacity};
  check_edge(edge);
  // num_edges() narrows edges_.size() to int; refuse the edge that would
  // make that cast wrap instead of silently corrupting every index after it.
  if (edges_.size() >=
      static_cast<size_t>(std::numeric_limits<int>::max()))
    throw std::length_error(
        "FlowNetwork::add_edge: edge count at the int index limit");
  const int id = static_cast<int>(edges_.size());
  edges_.push_back(edge);
  return id;
}

void FlowNetwork::set_capacity(int e, double capacity) {
  if (e < 0 || e >= num_edges())
    throw std::invalid_argument("FlowNetwork::set_capacity: edge out of range");
  if (!(capacity > 0.0))
    throw std::invalid_argument(
        "FlowNetwork::set_capacity: capacity must be positive");
  edges_[e].capacity = capacity;
}

double FlowNetwork::max_capacity() const {
  double c = 0.0;
  for (const Edge& e : edges_) c = std::max(c, e.capacity);
  return c;
}

void FlowNetwork::validate() const {
  if (num_vertices_ < 2) throw std::invalid_argument("FlowNetwork: too few vertices");
  if (source_ == sink_) throw std::invalid_argument("FlowNetwork: source == sink");
  for (const Edge& e : edges_) {
    if (e.from == e.to) throw std::invalid_argument("FlowNetwork: self loop");
    if (!(e.capacity > 0.0))
      throw std::invalid_argument("FlowNetwork: non-positive capacity");
  }
}

Incidence incidence(const FlowNetwork& net) {
  const int n = net.num_vertices();
  const size_t m = static_cast<size_t>(net.num_edges());
  if (2 * m >= static_cast<size_t>(std::numeric_limits<int>::max()))
    throw std::length_error(
        "incidence: 2m arcs exceed the int arc index; instances must stay "
        "below 2^30 edges");
  Incidence inc;
  inc.start.assign(static_cast<size_t>(n) + 1, 0);
  for (const Edge& e : net.edges()) {
    ++inc.start[static_cast<size_t>(e.from) + 1];
    ++inc.start[static_cast<size_t>(e.to) + 1];
  }
  for (int v = 0; v < n; ++v) inc.start[v + 1] += inc.start[v];
  inc.arcs.resize(2 * m);
  std::vector<int> cursor(inc.start.begin(), inc.start.end() - 1);
  for (int e = 0; e < static_cast<int>(m); ++e) {
    const Edge& edge = net.edge(e);
    inc.arcs[cursor[edge.from]++] = 2 * e;
    inc.arcs[cursor[edge.to]++] = 2 * e + 1;
  }
  return inc;
}

namespace {

/// BFS over one direction of the incidence: arcs of parity `parity` are
/// followed to the other endpoint of their edge.
std::vector<char> reach(const FlowNetwork& net, int start, int parity) {
  const Incidence inc = incidence(net);
  std::vector<char> seen(net.num_vertices(), 0);
  std::queue<int> q;
  q.push(start);
  seen[start] = 1;
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    for (int arc : inc.at(v)) {
      if ((arc & 1) != parity) continue;
      const Edge& e = net.edge(arc >> 1);
      const int u = parity ? e.from : e.to;
      if (!seen[u]) { seen[u] = 1; q.push(u); }
    }
  }
  return seen;
}

} // namespace

std::vector<char> reachable_from(const FlowNetwork& net, int start) {
  return reach(net, start, 0);
}

std::vector<char> reaches_to(const FlowNetwork& net, int target) {
  return reach(net, target, 1);
}

FlowNetwork paper_example_fig5() {
  // Vertices: 0 = s, 1 = n1, 2 = n2, 3 = n3, 4 = t.
  //
  // Topology reconstructed from the paper's quantitative claims: the exact
  // max flow is 2 (Fig. 8), Vx1 settles at 2 V, and Vx3/Vx4 saturate at
  // their 1 V capacities (Sec. 2.4) — which pins x3 as the n2->n3 edge:
  //        s --x1(3)--> n1 --x2(2)--> n2 --x5(2)--> t
  //                                   n2 --x3(1)--> n3 --x4(1)--> t
  FlowNetwork net(5, 0, 4);
  net.add_edge(0, 1, 3.0); // x1: s  -> n1
  net.add_edge(1, 2, 2.0); // x2: n1 -> n2
  net.add_edge(2, 3, 1.0); // x3: n2 -> n3
  net.add_edge(3, 4, 1.0); // x4: n3 -> t
  net.add_edge(2, 4, 2.0); // x5: n2 -> t
  return net;
}

FlowNetwork paper_example_fig15(double inf_cap) {
  // Vertices: 0 = s, 1 = n1, 2 = n2, 3 = n3, 4 = t.
  FlowNetwork net(5, 0, 4);
  net.add_edge(0, 1, 4.0);     // x1: s  -> n1
  net.add_edge(1, 2, 1.0);     // x2: n1 -> n2
  net.add_edge(1, 3, 4.0);     // x3: n1 -> n3
  net.add_edge(2, 4, inf_cap); // n2 -> t, "infinite"
  net.add_edge(3, 4, inf_cap); // n3 -> t, "infinite"
  return net;
}

} // namespace aflow::graph
