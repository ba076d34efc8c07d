// Dual decomposition for large graphs (Sec. 6.4).
//
// Following the paper's sketch (after Strandmark & Kahl, CVPR'10): the
// vertex set is split into two overlapping regions M and N; every edge
// inside the overlap appears in both subproblems with half its capacity
// plus/minus a Lagrange multiplier. Each iteration solves the two
// independent min-cut subproblems (on the substrate — reconfigured and
// reused — or on the CPU) and nudges the multipliers toward agreement of
// the overlap vertices' cut-side labels with a diminishing subgradient
// step. On agreement, the merged labelling is a globally optimal min cut.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "flow/maxflow.hpp"
#include "graph/network.hpp"

namespace aflow::mincut {

struct Split {
  std::vector<char> in_m;    // vertex in region M
  std::vector<char> in_n;    // vertex in region N
  std::vector<char> overlap; // in both
};

/// Splits vertices by BFS distance from the source: the nearer half goes to
/// M, the farther half to N, with `overlap_rings` BFS rings shared.
/// Source/sink terminals are added to both regions.
Split split_by_bfs(const graph::FlowNetwork& net, int overlap_rings = 1);

/// K-band generalisation of Split: `mask[v]` holds one bit per band the
/// vertex belongs to. Bands are BFS-distance ranges at quantile thresholds,
/// each extended `overlap_rings` rings into its predecessor, so every
/// ordinary vertex lies in one band or in two consecutive ones; terminals
/// carry all bands. For num_regions == 2 the membership is identical to
/// split_by_bfs.
struct BandSplit {
  int num_regions = 0;
  std::vector<std::uint64_t> mask;
};

BandSplit split_bands_by_bfs(const graph::FlowNetwork& net, int num_regions,
                             int overlap_rings = 1);

struct DecompositionOptions {
  int max_iterations = 60;
  double initial_step = 0.25; // in units of the largest capacity
  int overlap_rings = 1;
  /// Bands of the dual decomposition (2..64). The two-band default is the
  /// paper's M/N scheme; more bands shrink each subproblem further at the
  /// cost of more overlap coupling.
  int num_regions = 2;
  /// Min-cut oracle for the subproblems; defaults to push-relabel + residual
  /// cut. Swap in an analog solve to model substrate reuse. Custom oracles
  /// run sequentially (they may carry shared state); leave unset to let the
  /// engine fan the per-iteration subproblems across threads.
  std::function<flow::MinCutResult(const graph::FlowNetwork&)> oracle;
  /// Thread count for the default-oracle path, which solves each
  /// iteration's num_regions subproblems with push-relabel through a
  /// core::BatchEngine worker pool. 0 threads = hardware concurrency.
  int num_threads = 1;
};

struct DecompositionResult {
  double cut_value = 0.0;        // merged cut value on the full graph
  std::vector<char> side;        // merged labelling
  int iterations = 0;
  bool agreed = false;           // overlap labels agreed (=> optimal)
  int disagreements = 0;         // remaining label disagreements
  std::vector<double> bound_history; // sum of subproblem values per iteration
  int subproblem_vertices_m = 0; // band 0 size (kept for the 2-band API)
  int subproblem_vertices_n = 0; // last band size
  std::vector<int> region_vertices; // per-band vertex counts, all bands
};

DecompositionResult solve_by_decomposition(const graph::FlowNetwork& net,
                                           const DecompositionOptions& options = {});

} // namespace aflow::mincut
