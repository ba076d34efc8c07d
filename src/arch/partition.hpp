// Fiduccia-Mattheyses bipartitioning and recursive multiway partitioning,
// the clustering engine of the island-style mapping flow (Sec. 6.2): highly
// connected subgraphs go to the same processing island so that most edges
// stay inside a local crossbar.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/network.hpp"

namespace aflow::arch {

struct BipartitionResult {
  std::vector<char> side;  // 0 / 1 per (local) vertex
  long long cut_edges = 0; // edges crossing the partition
  int passes = 0;          // FM improvement passes executed
};

/// FM bipartition of an undirected adjacency (parallel edges allowed).
/// `balance_tolerance` bounds each side to ceil(n/2)(1 + tol).
BipartitionResult fm_bipartition(int num_vertices,
                                 const std::vector<std::pair<int, int>>& edges,
                                 double balance_tolerance = 0.1,
                                 std::uint64_t seed = 1);

struct PartitionResult {
  std::vector<int> part;   // part id per vertex
  int num_parts = 0;
  long long cut_edges = 0; // graph edges with endpoints in different parts
};

/// Recursive-bisection partitioning into parts of at most `capacity`
/// vertices, minimising edge cut.
PartitionResult partition_into_islands(const graph::FlowNetwork& net,
                                       int capacity, std::uint64_t seed = 1);

struct RegionPartitionOptions {
  int regions = 4;
  std::uint64_t seed = 1;
  /// Per-bisection side slack, as in fm_bipartition.
  double balance_tolerance = 0.1;
  /// Groups larger than this split by BFS layering instead of FM passes:
  /// the quadratic FM pass is fine for island-sized groups but would make a
  /// million-vertex first bisection take hours. BFS prefixes keep regions
  /// connected-ish on mesh-like instances at O(group edges) per split.
  int fm_threshold = 4096;
};

/// One region's view of the k-way split, plus the global cut manifest.
struct RegionPartition {
  int num_regions = 0;
  std::vector<int> region;                // region id per vertex
  std::vector<std::vector<int>> vertices; // per-region vertex lists
  /// Vertices with at least one incident cut arc, per region (the stitch
  /// points of the sharded solve).
  std::vector<std::vector<int>> boundary;
  /// Edge ids whose endpoints land in different regions, ascending.
  std::vector<int> cut_arcs;
  double cut_capacity = 0.0; // total capacity over cut_arcs
};

/// K-way region partitioner: recursive bisection (FM below fm_threshold,
/// BFS-prefix above), deterministic per (graph, options). Generalizes the
/// island bisection to the sharded-solve decomposition: regions are
/// balanced to within the per-split tolerances and every region is
/// non-empty. Throws std::invalid_argument when regions < 1 or regions
/// exceeds the vertex count.
RegionPartition partition_regions(const graph::FlowNetwork& net,
                                  const RegionPartitionOptions& opts = {});

} // namespace aflow::arch
