// Classical (digital) max-flow solvers.
//
// `push_relabel` (FIFO active list, gap heuristic, global relabels that
// also refresh heights mid-pass, parking at height n) is the paper's CPU
// baseline (Goldberg-Tarjan); `dinic` (blocking flows over levels that are
// residual distances to the sink) and `edmonds_karp` serve as independent
// cross-checks and alternative baselines. All solvers return per-edge flows
// so the analog solution can be compared edge-wise.
#pragma once

#include <vector>

#include "graph/network.hpp"
#include "util/cancel.hpp"

namespace aflow::flow {

/// The SolveMetrics counters, one row each, in the key order of the JSON
/// metrics object (core::write_metrics_fields; docs/BENCH_FORMAT.md holds
/// one table row per counter). The fields, their accumulation and the JSON
/// writer are all generated from this table, so a new counter is one row
/// here plus one doc row.
///
/// Push-relabel passes (flow/push_relabel.cpp) flood every live source arc,
/// cold or restarted from a carried flow: one injected_excess_arcs tick per
/// arc. warm_escalations always reads 0; it stays for the v1 wire format.
/// The fallback_* rows are the graceful-degradation ladder (DESIGN.md
/// "Failure taxonomy and the degradation ladder"): one tick per fallback
/// rung taken on behalf of the solve, so no recovery is silent.
#define AFLOW_SOLVE_COUNTERS(X)                                              \
  X(iterations)              /* Newton/PWL iterations or transient solves */ \
  X(full_factors)            /* factorisations incl. symbolic analysis */    \
  X(refactors)               /* numeric-only fast-path factorisations */     \
  X(prototype_refactors)     /* refactors via cross-instance prototypes */   \
  X(rhs_refreshes)           /* transient RHS-only incremental updates */    \
  X(warm_iterations)         /* iterations in warm-started solves */         \
  X(cold_iterations)         /* iterations in cold solves */                 \
  X(pool_hits)               /* core::ReusePool lookups that hit */          \
  X(pool_misses)             /* ... and missed: one lookup per solve */      \
  X(pool_evictions)          /* LRU entries evicted by this solve's store */ \
  X(delta_solves)            /* solve_delta calls on the delta fast path */  \
  X(delta_fallbacks)         /* ... and fell back to a full solve */         \
  X(edges_touched)           /* distinct edited edges the deltas carried */  \
  X(injected_excess_arcs)    /* push-relabel restart excess injections */    \
  X(returned_excess_walks)   /* phase-2 walks hauling excess home */         \
  X(phase2_fallbacks)        /* slow legacy discharge after a dead end */    \
  X(warm_escalations)        /* always 0; kept for the v1 wire format */     \
  X(fallback_analog_digital) /* analog failure -> digital backend */         \
  X(fallback_region_retries) /* sharded region solve re-attempts */          \
  X(fallback_region_direct)  /* region solved by local direct rung */        \
  X(fallback_pool_rebuilds)  /* corrupt pool entry dropped and rebuilt */

/// Optional backend telemetry for perf tracking (aflow bench --json, batch
/// reports, serve responses). The analog backends fill it from their
/// DC/transient statistics; the delta, push-relabel restart and sharded
/// paths fill their own rows. The analog, sweep and min-cut result types
/// derive from it, so their counters are these.
struct SolveMetrics {
#define AFLOW_DECLARE_COUNTER(name) long long name = 0;
  AFLOW_SOLVE_COUNTERS(AFLOW_DECLARE_COUNTER)
#undef AFLOW_DECLARE_COUNTER
  /// The result came from a warm-started solve. Not a counter: it ORs
  /// under accumulation, and the JSON metrics object does not carry it.
  bool warm_started = false;

  /// Accumulates another solve's counters (warm_started ORs). Every field
  /// is attributable to the request that produced it, so the same type
  /// serves both aggregation scopes of the serving layer: *per-session*
  /// (one connection's requests) and *shared-bank* (every session through
  /// one solver bank). The two scopes reconcile by construction — summing
  /// the per-session pool_* counters over all sessions of a bank yields
  /// the shared pool's own cumulative hit/miss/eviction statistics.
  SolveMetrics& operator+=(const SolveMetrics& m) {
#define AFLOW_ADD_COUNTER(name) name += m.name;
    AFLOW_SOLVE_COUNTERS(AFLOW_ADD_COUNTER)
#undef AFLOW_ADD_COUNTER
    warm_started = warm_started || m.warm_started;
    return *this;
  }
};

struct MaxFlowResult {
  double flow_value = 0.0;
  /// Flow assigned to each input edge, parallel to FlowNetwork::edges().
  std::vector<double> edge_flow;
  /// Algorithm-specific work counter (augmentations, pushes, ...), for the
  /// operation-count comparisons in the benchmarks.
  long long operations = 0;
  SolveMetrics metrics;
};

/// The optional CancelToken makes long solves cooperatively cancellable
/// (deadline or explicit flag; see util/cancel.hpp): a tripped token throws
/// util::CancelledError from the solver's next iteration boundary. The
/// default token never cancels.
MaxFlowResult edmonds_karp(const graph::FlowNetwork& net,
                           const util::CancelToken& cancel = {});
MaxFlowResult dinic(const graph::FlowNetwork& net,
                    const util::CancelToken& cancel = {});
MaxFlowResult push_relabel(const graph::FlowNetwork& net,
                           const util::CancelToken& cancel = {});

/// A minimum s-t cut extracted from a maximum flow.
struct MinCutResult {
  double cut_value = 0.0;
  /// side[v] == 1 iff v is on the source side of the cut.
  std::vector<char> side;
  /// Input-edge indices crossing the cut (source side -> sink side).
  std::vector<int> cut_edges;
};

/// Computes the min cut from a max flow via residual reachability: an arc is
/// residual above 1e-9 times max(1, largest capacity).
MinCutResult min_cut_from_flow(const graph::FlowNetwork& net,
                               const MaxFlowResult& flow);

/// Verifies that `result` is a maximum flow on `net`, in two halves. The
/// feasibility half: capacity bounds and conservation hold to within `tol`,
/// and flow_value matches the net source outflow; a NaN or infinite flow
/// value or edge flow fails. The min-cut half: the residual search of
/// min_cut_from_flow does not reach the sink, and the capacity leaving the
/// set it reaches equals flow_value to within `tol` times max(1, largest
/// capacity). Returns an empty string when valid, otherwise a
/// human-readable description of the first violation, prefixed
/// "infeasible: " or "not maximum: " by the half that failed.
std::string check_flow(const graph::FlowNetwork& net, const MaxFlowResult& result,
                       double tol = 1e-9);

} // namespace aflow::flow
