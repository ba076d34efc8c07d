// Sharded solve of one huge instance (DESIGN.md "Sharded solve"):
// k-way region partition -> parallel region solves through the BatchEngine
// worker pool -> boundary stitch -> conservation repair -> exact refinement
// on the full residual, with a valid optimality bound reported at every
// stage. The returned flow value is exactly the max flow: the refinement
// pass augments the stitched feasible flow to maximality regardless of how
// good the stitch was, so partition quality only moves work between the
// parallel region stage and the sequential refinement stage, never
// correctness.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "graph/network.hpp"

namespace aflow::core {

struct ShardOptions {
  /// Region count k; clamped to the vertex count. Below 2 the solve
  /// degenerates to a direct residual solve (no partition machinery).
  int shards = 4;
  /// Registry backend for the region subproblems. Must be exact and
  /// non-analog (region solves feed an exactness-preserving stitch; an
  /// approximate region flow would push its error into refinement work, and
  /// the analog adapters' crossbar sizing is not meant for shard-scale
  /// subproblems).
  std::string region_solver = "dinic";
  /// Worker threads for region solves; 0 picks hardware concurrency.
  int num_threads = 0;
  /// In-order single-thread region solves (clean traces; results are
  /// bit-identical either way since regions write disjoint slots).
  bool deterministic = false;
  /// Partition seed (arch::partition_regions).
  std::uint64_t seed = 1;
  /// Degradation ladder, region rung: a failed (or fault-injected) region
  /// solve is retried up to this many times through the region backend; if
  /// every retry fails too, the region is re-solved directly on the calling
  /// thread with the built-in exact solver. Both recoveries are reported
  /// (ShardReport::region_retries / region_direct_solves and the
  /// fallback_region_* SolveMetrics counters); only when the direct rung
  /// itself fails does the solve throw.
  int region_retries = 1;
};

/// Stage-by-stage telemetry of one sharded solve. upper_bound >= flow_value
/// >= stitched_value always; flow_value == the direct solver's value.
struct ShardReport {
  int regions = 0;
  std::vector<int> region_vertices; // per-region vertex counts
  int cut_arcs = 0;
  double cut_capacity = 0.0;
  /// Pre-refinement optimality bound: min(trivial terminal bound, max flow
  /// of the region-contracted graph). Contraction only relaxes
  /// conservation, so this can never undershoot the true max flow.
  double upper_bound = 0.0;
  double stitched_value = 0.0; // feasible flow value after stitch + repair
  double refined_added = 0.0;  // flow added by the exact refinement pass
  double flow_value = 0.0;
  long long region_operations = 0;
  long long repair_operations = 0;
  long long refine_operations = 0;
  double partition_seconds = 0.0;
  double region_seconds = 0.0;
  double stitch_seconds = 0.0;
  double refine_seconds = 0.0;
  int threads_used = 1;
  /// Degradation-ladder traffic (see ShardOptions::region_retries).
  int region_retries = 0;
  int region_direct_solves = 0;
};

class ShardedSolver final : public ISolver {
 public:
  explicit ShardedSolver(ShardOptions options = {});

  const std::string& name() const override { return name_; }
  SolverCapabilities capabilities() const override;

  using ISolver::solve;

  /// ISolver entry: solve_csr without a report.
  flow::MaxFlowResult solve(const graph::FlowNetwork& net,
                            const CancelToken& cancel) const override;

  /// Solves `g` in place and fills `report` when given; the solver's only
  /// report-taking entry (the name is kept for perfbench/layers.cpp).
  /// Throws std::invalid_argument when the region backend is unknown,
  /// approximate, or analog. `cancel` is checked at every stage boundary
  /// and threaded into the region solves, the conservation repair, and the
  /// refinement pass.
  flow::MaxFlowResult solve_csr(const graph::FlowNetwork& g,
                                ShardReport* report = nullptr,
                                const CancelToken& cancel = {}) const;

  const ShardOptions& options() const { return options_; }

 private:
  std::string name_ = "sharded";
  ShardOptions options_;
};

} // namespace aflow::core
