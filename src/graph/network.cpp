#include "graph/network.hpp"

#include <algorithm>
#include <cmath>
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
  for (const Edge& e : edges) {
    check_edge(e);
    max_capacity_ = std::max(max_capacity_, e.capacity);
  }
  edges_ = std::move(edges);
}

void FlowNetwork::check_edge(const Edge& e) const {
  if (e.from < 0 || e.from >= num_vertices_ || e.to < 0 ||
      e.to >= num_vertices_)
    throw std::invalid_argument("FlowNetwork: edge vertex out of range");
  if (e.from == e.to)
    throw std::invalid_argument("FlowNetwork: self loops not supported");
  // An infinite capacity would make flow sums inf - inf = NaN; NaN fails
  // the comparison.
  if (!(e.capacity > 0.0 && std::isfinite(e.capacity)))
    throw std::invalid_argument(
        "FlowNetwork: edge capacity must be positive and finite");
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
  max_capacity_ = std::max(max_capacity_, capacity);
  // The topology changed: drop the layout here and leave the copies that
  // share the cell theirs (one owner may clear the cell in place).
  if (layout_.use_count() == 1)
    layout_->layout.reset();
  else
    layout_ = std::make_shared<LayoutCell>();
  return id;
}

void FlowNetwork::set_capacity(int e, double capacity) {
  if (e < 0 || e >= num_edges())
    throw std::invalid_argument("FlowNetwork::set_capacity: edge out of range");
  check_edge({edges_[e].from, edges_[e].to, capacity});
  const double old = edges_[e].capacity;
  edges_[e].capacity = capacity;
  if (capacity >= max_capacity_) {
    max_capacity_ = capacity;
  } else if (old == max_capacity_) {
    // The edge that held the maximum went down: only a scan finds the new
    // one (another edge may tie it).
    max_capacity_ = 0.0;
    for (const Edge& x : edges_)
      max_capacity_ = std::max(max_capacity_, x.capacity);
  }
}

void FlowNetwork::validate() const {
  if (num_vertices_ < 2) throw std::invalid_argument("FlowNetwork: too few vertices");
}

namespace {

/// Builds the layout of `net`'s topology (FlowNetwork::arc_layout).
ArcLayout build_arc_layout(const FlowNetwork& net,
                           const util::CancelToken& cancel) {
  const int n = net.num_vertices();
  const size_t m = static_cast<size_t>(net.num_edges());
  if (2 * m >= static_cast<size_t>(std::numeric_limits<int>::max()))
    throw std::length_error(
        "arc layout: 2m arcs exceed the int arc index; instances must stay "
        "below 2^30 edges");
  // Work between two cancellation checks: a clock read per 2^14 edges or
  // vertices costs nothing next to the passes themselves.
  constexpr size_t kStride = size_t{1} << 14;
  const std::span<const Edge> edges = net.edges();

  // Pass 1: degrees. adj[v + 1] counts v's edges of either direction.
  std::vector<int> out_degree(static_cast<size_t>(n), 0);
  std::vector<int> adj(static_cast<size_t>(n) + 1, 0);
  for (size_t e = 0; e < m; ++e) {
    if (e % kStride == 0) cancel.check();
    ++out_degree[static_cast<size_t>(edges[e].from)];
    ++adj[static_cast<size_t>(edges[e].from) + 1];
    ++adj[static_cast<size_t>(edges[e].to) + 1];
  }
  for (int v = 0; v < n; ++v) adj[v + 1] += adj[v];

  // Pass 2: the undirected neighbour lists the search walks, dropped
  // before the arc arrays exist.
  std::vector<int> order(static_cast<size_t>(n)); // position -> vertex
  ArcLayout g;
  g.position.assign(static_cast<size_t>(n), -1);
  {
    std::vector<int> neighbour(2 * m);
    std::vector<int> cursor(adj.begin(), adj.end() - 1);
    for (size_t e = 0; e < m; ++e) {
      if (e % kStride == 0) cancel.check();
      const Edge& x = edges[e];
      neighbour[static_cast<size_t>(cursor[x.from]++)] = x.to;
      neighbour[static_cast<size_t>(cursor[x.to]++)] = x.from;
    }
    // Pass 3: breadth-first from the sink, then the unreached vertices in
    // input order.
    int tail = 0;
    const auto place = [&](int v) {
      g.position[static_cast<size_t>(v)] = tail;
      order[static_cast<size_t>(tail++)] = v;
    };
    place(net.sink());
    for (int i = 0; i < tail; ++i) {
      if (static_cast<size_t>(i) % kStride == 0) cancel.check();
      const int v = order[static_cast<size_t>(i)];
      for (int k = adj[v]; k < adj[v + 1]; ++k) {
        const int u = neighbour[static_cast<size_t>(k)];
        if (g.position[static_cast<size_t>(u)] < 0) place(u);
      }
    }
    for (int v = 0; v < n && tail < n; ++v)
      if (g.position[static_cast<size_t>(v)] < 0) place(v);
  }

  // Pass 4: offsets in layout order, then one scatter of the arcs. The
  // degree arrays become the out- and in-arc cursors of each position.
  g.start.resize(static_cast<size_t>(n) + 1);
  g.in_begin.resize(static_cast<size_t>(n));
  g.start[0] = 0;
  for (int p = 0; p < n; ++p) {
    const int v = order[static_cast<size_t>(p)];
    g.start[p + 1] = g.start[p] + (adj[v + 1] - adj[v]);
    g.in_begin[p] = g.start[p] + out_degree[v];
  }
  std::vector<int>& out_cursor = out_degree;
  std::vector<int>& in_cursor = order;
  std::copy(g.start.begin(), g.start.end() - 1, out_cursor.begin());
  std::copy(g.in_begin.begin(), g.in_begin.end(), in_cursor.begin());
  g.head.resize(2 * m);
  g.sister.resize(2 * m);
  g.forward.resize(m);
  for (size_t e = 0; e < m; ++e) {
    if (e % kStride == 0) cancel.check();
    const int u = g.position[static_cast<size_t>(edges[e].from)];
    const int v = g.position[static_cast<size_t>(edges[e].to)];
    const int a = out_cursor[u]++;
    const int b = in_cursor[v]++;
    g.head[a] = v;
    g.head[b] = u;
    g.sister[a] = b;
    g.sister[b] = a;
    g.forward[e] = a;
  }
  return g;
}

} // namespace

std::shared_ptr<const ArcLayout> FlowNetwork::arc_layout(
    const util::CancelToken& cancel) const {
  LayoutCell& cell = *layout_;
  {
    const std::lock_guard lock(cell.mutex);
    if (cell.layout) return cell.layout;
  }
  // Built outside the lock, so a caller never waits on another's build
  // and its own token stays live throughout.
  auto built = std::make_shared<const ArcLayout>(build_arc_layout(*this, cancel));
  const std::lock_guard lock(cell.mutex);
  if (!cell.layout) cell.layout = std::move(built);
  return cell.layout;
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
