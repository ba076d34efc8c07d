// Directed flow networks: the problem representation shared by the classical
// CPU solvers (`flow`) and the analog substrate (`analog`).
//
// Capacities are doubles so that quantised/analog solutions can be expressed
// in the same type, but all generators emit integral capacities as in the
// paper ("assign each edge e a nonzero integral capacity").
#pragma once

#include <span>
#include <string>
#include <vector>

namespace aflow::graph {

struct Edge {
  int from = 0;
  int to = 0;
  double capacity = 0.0;
};

/// A directed graph with distinguished source/sink and edge capacities,
/// stored as one flat edge list — the only graph type of the library.
/// Solvers that walk adjacency build the incidence CSR on demand
/// (graph::incidence below). Parallel edges are allowed; self-loops are
/// rejected (they cannot carry s-t flow and the crossbar has no diagonal
/// widgets for them).
class FlowNetwork {
 public:
  FlowNetwork() = default;
  FlowNetwork(int num_vertices, int source, int sink);
  /// Adopts a whole edge list at once (the DIMACS reader's path: no
  /// per-edge reallocation). Every edge is checked as add_edge checks it.
  FlowNetwork(int num_vertices, int source, int sink, std::vector<Edge> edges);

  /// Adds a directed edge and returns its index.
  int add_edge(int from, int to, double capacity);

  /// Reprograms one edge's capacity in place — the serving reconfiguration
  /// primitive (topology, and therefore the substrate's MNA pattern under
  /// dedicated level sources, is unchanged). Throws std::invalid_argument
  /// on a bad index or non-positive capacity.
  void set_capacity(int e, double capacity);

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  int source() const { return source_; }
  int sink() const { return sink_; }

  const Edge& edge(int e) const { return edges_[e]; }
  std::span<const Edge> edges() const { return edges_; }

  double max_capacity() const;

  /// Throws std::invalid_argument when the instance is malformed
  /// (bad source/sink, non-positive capacity, self loop).
  void validate() const;

  /// Returns a copy with `capacity -> f(capacity)` applied to every edge.
  template <typename F>
  FlowNetwork transform_capacities(F&& f) const {
    FlowNetwork out(num_vertices_, source_, sink_);
    for (const Edge& e : edges_) out.add_edge(e.from, e.to, f(e.capacity));
    return out;
  }

 private:
  void check_edge(const Edge& e) const;

  int num_vertices_ = 0;
  int source_ = 0;
  int sink_ = 0;
  std::vector<Edge> edges_;
};

/// Incidence CSR of a network: edge e appears as arc 2e in its tail's list
/// (leaving) and as arc 2e+1 in its head's list (entering); each vertex's
/// arcs are in ascending edge order. The same arc numbering indexes
/// flow::detail::Residual's capacity array, so the residual adopts this
/// structure as is.
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
