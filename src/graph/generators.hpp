// Workload generators.
//
// The paper evaluates on R-MAT synthetic graphs (Chakrabarti et al., ICDM'04)
// in two regimes: dense (|E| proportional to |V|^2) and sparse (|E|
// proportional to |V|), with 200..1000 vertices and 500..8000 edges
// (Sec. 5.1). Grid graphs model the computer-vision workload from the
// introduction; layered and uniform-random graphs are used by the tests.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <random>

#include "graph/network.hpp"

namespace aflow::graph {

/// R-MAT quadrant probabilities; defaults are the customary skewed setting.
struct RmatParams {
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  // d = 1 - a - b - c
  /// Largest (integral) edge capacity; capacities drawn uniformly in [1, C].
  int max_capacity = 64;
};

/// Generates an R-MAT graph with `num_vertices` vertices and (approximately)
/// `num_edges` distinct edges, then designates a source with maximal
/// out-degree and a sink of maximal in-degree among vertices reachable from
/// the source. Deterministic for a fixed seed.
FlowNetwork rmat(int num_vertices, int num_edges, const RmatParams& params,
                 std::uint64_t seed);

/// Dense regime of Fig. 10a: |E| = coeff * |V|^2. The paper's range
/// (8000 edges at 960 vertices) corresponds to coeff ~ 8.68e-3.
FlowNetwork rmat_dense(int num_vertices, std::uint64_t seed,
                       double coeff = 8000.0 / (960.0 * 960.0));

/// Sparse regime of Fig. 10b: |E| = degree * |V| (degree ~ 8 reaches the
/// paper's 8000 edges at 960 vertices).
FlowNetwork rmat_sparse(int num_vertices, std::uint64_t seed, double degree = 8.0);

/// 4-connected H x W pixel grid with source/sink terminals attached to every
/// pixel, the classic graph-cut construction for binary segmentation.
/// `terminal_source[p]` / `terminal_sink[p]` give the terminal capacities of
/// pixel p = y*width + x (zero entries omit the arc); `neighbor_capacity`
/// is used for all lattice arcs (both directions).
FlowNetwork grid_cut_graph(int height, int width,
                           const std::vector<double>& terminal_source,
                           const std::vector<double>& terminal_sink,
                           double neighbor_capacity);

/// Random layered DAG: source -> layer_1 -> ... -> layer_k -> sink, each
/// vertex wired to a random subset of the next layer. Good max-flow stress
/// shape with known structure.
FlowNetwork layered_random(int layers, int width, int fanout, int max_capacity,
                           std::uint64_t seed);

/// Erdos-Renyi-style random digraph with ensured s-t connectivity.
FlowNetwork uniform_random(int num_vertices, int num_edges, int max_capacity,
                           std::uint64_t seed);

/// Large-graph workload: an H x W lattice with flow entering at the left
/// column and draining at the right — s feeds (y, 0) on every row, (y, W-1)
/// feeds t, and every pixel has right/down/up lattice arcs with capacities
/// drawn uniformly from [1, max_cap]. At height = width = 1000 this is the
/// ~1M-vertex / ~3M-arc sharded-solve scale instance. Deterministic per
/// seed, and `write_gridflow_dimacs` emits the identical instance straight
/// to a DIMACS stream without materialising it, so huge workloads are
/// generated at O(1) memory and read back through read_dimacs.
FlowNetwork gridflow(int height, int width, int max_capacity,
                     std::uint64_t seed);
void write_gridflow_dimacs(std::ostream& out, int height, int width,
                           int max_capacity, std::uint64_t seed);

} // namespace aflow::graph
