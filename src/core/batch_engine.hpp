// BatchEngine: executes a batch of max-flow instances across a fixed pool of
// worker threads with per-instance timing and failure isolation. This is the
// serving seam of the roadmap: everything that needs "many instances, fast"
// (benches, the CLI, future sharding/async layers) goes through here.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/errors.hpp"
#include "core/solver.hpp"
#include "graph/network.hpp"

namespace aflow::core {

struct BatchOptions {
  /// Registry name of the backend to run.
  std::string solver = "dinic";
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  int num_threads = 0;
  /// Run everything in-order on the calling thread (implies num_threads = 1).
  /// Results are identical either way — this exists so tests and debugging
  /// sessions get reproducible scheduling and clean stack traces.
  bool deterministic = false;
  /// Run flow::check_flow on every solution; a violation marks the instance
  /// failed instead of silently returning an infeasible or non-maximum
  /// flow.
  bool validate = false;
  /// Cooperative cancellation for the whole batch: checked at every
  /// work-item claim and threaded into each solve. A tripped token fails
  /// the remaining instances with a retryable cancelled/deadline outcome
  /// (the never-throws-per-instance contract holds; in-flight solves unwind
  /// at their own iteration boundaries).
  CancelToken cancel;
};

/// Outcome of one instance within a batch.
struct InstanceOutcome {
  int index = -1;      // position in the input batch
  bool ok = false;
  std::string error;   // set when !ok (exception text or validation failure)
  /// Structured classification of `error` (code / retryable / typed
  /// detail), captured at the catch site so the serving layer can report
  /// machine-readable failures. Meaningful only when !ok.
  ErrorInfo error_info;
  flow::MaxFlowResult result;
  double seconds = 0.0; // solve wall-clock for this instance
};

struct BatchReport {
  /// One entry per input instance, in input order.
  std::vector<InstanceOutcome> outcomes;
  double wall_seconds = 0.0;
  int threads_used = 1;
  int failed = 0;
  /// Sum of flow values over successful instances.
  double total_flow = 0.0;
  /// Backend telemetry summed over successful instances (zeros for
  /// backends that do not report it). metrics.warm_started is true when
  /// any instance warm-started; warm_started_instances counts them.
  flow::SolveMetrics metrics;
  int warm_started_instances = 0;
};

/// Writes every SolveMetrics counter as a field of the JSON object the
/// caller has open, in AFLOW_SOLVE_COUNTERS order: the one metrics writer
/// behind serve responses and `aflow bench --json`. Each key has a row in
/// docs/BENCH_FORMAT.md, which tools/check_doc_links.py enforces.
void write_metrics_fields(util::JsonWriter& j, const flow::SolveMetrics& m);
/// The same fields as one complete JSON object.
void write_metrics_json(util::JsonWriter& j, const flow::SolveMetrics& m);

class BatchEngine {
 public:
  explicit BatchEngine(BatchOptions options = {});

  /// Solves every instance; never throws on per-instance failure (malformed
  /// instance, solver exception) — those surface as `ok == false` outcomes.
  /// Throws std::invalid_argument when the solver name is unknown. Each
  /// worker thread owns a fresh registry solver. A worker thread that fails
  /// to start (the process thread limit) is not fatal: the threads that
  /// did start solve its share, and threads_used counts the threads that
  /// ran. The same holds for the shared-solver and streamed entries.
  BatchReport run(const std::vector<graph::FlowNetwork>& instances) const;

  /// Like run(), but fans the whole batch into ONE caller-provided shared
  /// solver instance from up to `threads` concurrent workers (further
  /// clamped by the usual resolve_threads rules). This leans on the ISolver
  /// contract (solve must be concurrency-safe on one instance) and is the
  /// multi-session serving path: every session of a core::ServeEngine bank
  /// drives the same solver, so cross-instance assets (la::OrderingCache,
  /// core::ReusePool) stay alive across calls and are shared by everyone
  /// rather than partitioned per worker. `options().solver` is
  /// informational only on this path.
  BatchReport run(const std::vector<graph::FlowNetwork>& instances,
                  const SolverPtr& shared_solver, int threads) const;

  /// Lazily materialised batch for instances too big to coexist: worker
  /// threads claim index i, call make(i) to build the instance, solve it,
  /// hand the outcome to consume(outcome), and drop the instance and the
  /// solution's edge_flow before claiming the next index — so at most
  /// `threads` instances (plus their residuals) are alive at once. This is
  /// the region-solve path of core::ShardedSolver, where the k region
  /// subproblems of a huge graph would otherwise sum back to full-graph
  /// memory. make and consume may be invoked concurrently for distinct
  /// indices (consume writes to disjoint per-region slots in the sharded
  /// path); outcomes keep timings and errors but have edge_flow cleared.
  BatchReport run_streamed(
      int count, const std::function<graph::FlowNetwork(int)>& make,
      const std::function<void(InstanceOutcome&)>& consume) const;

  /// Single-instance entry: solves `net` on the calling thread with the
  /// engine's usual timing, optional validation and failure isolation, as
  /// a one-instance outcome (index 0), without copying the instance into a
  /// batch.
  InstanceOutcome run_one(const graph::FlowNetwork& net,
                          const SolverPtr& solver) const;

  /// Single-step delta entry: solves the post-edit `net` through
  /// solver->solve_delta(net, delta, prior, &state) like run_one, advancing
  /// the caller's stream state (see ISolver::solve_delta). With
  /// BatchOptions::validate the check reads edge flows from the state when
  /// the solve returned none. A failed step clears the state.
  InstanceOutcome run_delta(const graph::FlowNetwork& net,
                            const flow::CapacityDelta& delta,
                            const flow::MaxFlowResult& prior,
                            const SolverPtr& solver,
                            flow::DeltaState& state) const;

  /// Reconfiguration-stream entry: outcome 0 solves `base` from scratch;
  /// outcome k >= 1 applies deltas[k-1] to the running network and
  /// re-solves it through one flow::DeltaState kept across the stream,
  /// with the previous successful result as the prior. A
  /// stream is inherently sequential (each step consumes its predecessor),
  /// so it runs on the calling thread regardless of num_threads; a failed
  /// step is isolated like any batch failure and the next step's prior is
  /// the last successful result (an unusable prior just rides the
  /// backend's from-scratch fallback). Delta traffic shows up in the
  /// report's summed metrics (delta_solves / delta_fallbacks /
  /// edges_touched).
  BatchReport run_delta(const graph::FlowNetwork& base,
                        std::span<const flow::CapacityDelta> deltas,
                        const SolverPtr& solver) const;

  const BatchOptions& options() const { return options_; }

  /// The thread count `run` will actually use for `n` instances.
  int resolve_threads(int n) const;

 private:
  BatchOptions options_;
};

} // namespace aflow::core
