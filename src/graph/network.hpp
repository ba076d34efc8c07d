// Directed flow networks: the problem representation shared by the classical
// CPU solvers (`flow`) and the analog substrate (`analog`).
//
// Capacities are doubles so that quantised/analog solutions can be expressed
// in the same type, but all generators emit integral capacities as in the
// paper ("assign each edge e a nonzero integral capacity").
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/cancel.hpp"

namespace aflow::graph {

struct ArcLayout;

struct Edge {
  int from = 0;
  int to = 0;
  double capacity = 0.0;
};

/// A directed graph with distinguished source/sink and edge capacities,
/// stored as one flat edge list — the only graph type of the library.
/// The exact kernels walk the network's arc layout (arc_layout below),
/// built by its first exact solve and kept with the topology; other passes
/// that walk adjacency build the incidence CSR on demand (graph::incidence
/// below). Parallel edges are allowed; self-loops are rejected (they cannot
/// carry s-t flow and the crossbar has no diagonal widgets for them).
class FlowNetwork {
 public:
  FlowNetwork() = default;
  FlowNetwork(int num_vertices, int source, int sink);
  /// Adopts a whole edge list at once (the DIMACS reader's path: no
  /// per-edge reallocation). Every edge is checked as add_edge checks it.
  FlowNetwork(int num_vertices, int source, int sink, std::vector<Edge> edges);

  /// Adds a directed edge and returns its index. Throws
  /// std::invalid_argument on an endpoint out of range, a self loop, or a
  /// capacity that is not positive and finite. Drops the arc layout.
  int add_edge(int from, int to, double capacity);

  /// Reprograms one edge's capacity in place — the serving reconfiguration
  /// primitive (topology, and therefore the substrate's MNA pattern under
  /// dedicated level sources and the arc layout, is unchanged). Throws
  /// std::invalid_argument on a bad index or a capacity that is not
  /// positive and finite.
  void set_capacity(int e, double capacity);

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  int source() const { return source_; }
  int sink() const { return sink_; }

  const Edge& edge(int e) const { return edges_[e]; }
  std::span<const Edge> edges() const { return edges_; }

  /// Largest edge capacity (0 without edges). Kept current by every
  /// mutator, so reading it is O(1); set_capacity rescans the edge list
  /// only when it lowers the edge that held the maximum.
  double max_capacity() const { return max_capacity_; }

  /// Throws std::invalid_argument for a default-constructed network, the only
  /// malformed one: every constructor and mutator checks what it sets.
  void validate() const;

  /// Returns a copy with `capacity -> f(capacity)` applied to every edge,
  /// in edge order. The copy shares this network's arc layout.
  template <typename F>
  FlowNetwork transform_capacities(F&& f) const {
    std::vector<Edge> edges = edges_;
    for (Edge& e : edges) e.capacity = f(e.capacity);
    FlowNetwork out(num_vertices_, source_, sink_, std::move(edges));
    out.layout_ = layout_;
    return out;
  }

  /// The arc layout of this topology, which every exact kernel walks
  /// (flow::detail::Residual). The first call builds it in four O(n + m)
  /// passes under `cancel`, checked every 2^14 edges or vertices of work;
  /// a cancelled build publishes nothing, so the next call builds again.
  /// Throws std::length_error when 2m arcs overflow the int arc index
  /// (instances of 2^30 edges or more). Copies share the
  /// layout, whether it is built before or after the copy. Safe to call
  /// from several threads on one network: each caller that finds no
  /// layout builds one under its own token, without waiting on the
  /// others, and the first to finish publishes it for every caller.
  std::shared_ptr<const ArcLayout> arc_layout(
      const util::CancelToken& cancel = {}) const;

 private:
  /// The one edge check behind add_edge, the edge-list constructor and
  /// set_capacity.
  void check_edge(const Edge& e) const;

  /// The layout cell of one topology, shared by every copy of the network.
  struct LayoutCell {
    std::mutex mutex; // guards layout
    std::shared_ptr<const ArcLayout> layout;
  };

  int num_vertices_ = 0;
  int source_ = 0;
  int sink_ = 0;
  std::vector<Edge> edges_;
  double max_capacity_ = 0.0;
  std::shared_ptr<LayoutCell> layout_ = std::make_shared<LayoutCell>();
};

/// The residual arc layout of a topology: the CSR that every exact kernel
/// walks. Vertices are renumbered breadth-first from the sink over the
/// undirected graph (vertices the search does not reach follow in input
/// order), so a kernel's per-vertex reads along residual paths land near
/// each other whatever the input numbering. Edge e has a forward arc at
/// its tail and a reverse arc at its head. Each vertex's arcs are
/// contiguous: its out-arcs (forward arcs of its out-edges) and then its
/// in-arcs (reverse arcs of its in-edges), each part in edge order. The
/// layout holds no capacities, so capacity edits keep it.
struct ArcLayout {
  std::vector<int> position; // input vertex -> layout position (sink: 0)
  std::vector<int> start;    // n + 1: position p's arcs are [start[p], start[p + 1])
  std::vector<int> in_begin; // n: position p's in-arcs are [in_begin[p], start[p + 1])
  std::vector<int> head;     // 2m: arc -> the position it points to
  std::vector<int> sister;   // 2m: arc -> the other arc of its edge
  std::vector<int> forward;  // m: edge -> its forward arc
};

/// Incidence CSR of a network: edge e appears as arc 2e in its tail's list
/// (leaving) and as arc 2e+1 in its head's list (entering); each vertex's
/// arcs are in ascending edge order. For passes outside the exact kernels
/// (min-cut extraction, the analog mapper, decomposition, reachability).
struct Incidence {
  std::vector<int> start; // n + 1 offsets into arcs
  std::vector<int> arcs;  // 2m arc ids

  std::span<const int> at(int v) const {
    return {arcs.data() + start[v],
            static_cast<size_t>(start[v + 1] - start[v])};
  }
};

/// Builds the incidence CSR in two O(n + m) passes. Throws std::length_error
/// when 2m arcs overflow the int arc index (instances of 2^30 edges or more).
Incidence incidence(const FlowNetwork& net);

/// Vertices reachable from `start` following edge direction.
std::vector<char> reachable_from(const FlowNetwork& net, int start);
/// Vertices that can reach `target` following edge direction.
std::vector<char> reaches_to(const FlowNetwork& net, int target);

/// The Fig. 5a example instance from the paper: 4 vertices s,n1..n3,t with
/// edges x1..x5 of capacities 3,2,1,1,2 and max flow 2.
FlowNetwork paper_example_fig5();

/// The Fig. 15a quasi-static example: maximize x1 s.t. x1 = x2 + x3,
/// capacities 4,1,4 (the two "infinite" edges are given `inf_cap`).
FlowNetwork paper_example_fig15(double inf_cap = 1e3);

} // namespace aflow::graph
