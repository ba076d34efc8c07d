// The unified solver interface of the engine layer: every max-flow backend
// (classical CPU algorithms and the analog substrate model) is exposed as an
// ISolver so that benches, examples, the CLI, and the batch engine can pick
// backends by name instead of hard-wiring call sites.
#pragma once

#include <memory>
#include <string>

#include "flow/delta.hpp"
#include "flow/maxflow.hpp"
#include "graph/network.hpp"
#include "util/cancel.hpp"

namespace aflow::core {

/// Deadline- and flag-based cooperative cancellation, threaded through
/// every ISolver::solve. Defined in util/ (the flow/ and sim/ inner loops
/// check it and must not depend on core/); aliased here as the engine-layer
/// name.
using CancelToken = util::CancelToken;

/// Static properties a caller can dispatch on without knowing the backend.
struct SolverCapabilities {
  /// Produces the exact (integral-capacity) maximum flow, as opposed to the
  /// analog substrate's approximation.
  bool exact = true;
  /// Models the paper's analog substrate (quantization, device physics).
  bool analog = false;
  /// solve_delta has a real incremental fast path: small capacity edits are
  /// re-solved in O(changed region) by carrying the prior solution, instead
  /// of the default from-scratch fallback.
  bool incremental = false;
};

class ISolver {
 public:
  virtual ~ISolver() = default;

  /// Registry name, e.g. "dinic" or "analog_dc".
  virtual const std::string& name() const = 0;
  virtual SolverCapabilities capabilities() const = 0;

  /// Solves one instance. Must be safe to call concurrently from multiple
  /// threads on distinct instances (all built-in backends are stateless).
  /// `cancel` makes long solves cooperatively cancellable: backends check
  /// it at iteration boundaries and unwind with util::CancelledError when
  /// it trips. Implementations that override the cancellable entry should
  /// add `using ISolver::solve;` to keep the convenience overload visible.
  virtual flow::MaxFlowResult solve(const graph::FlowNetwork& net,
                                    const CancelToken& cancel) const = 0;

  /// Convenience entry with a never-cancelling token.
  flow::MaxFlowResult solve(const graph::FlowNetwork& net) const {
    return solve(net, CancelToken{});
  }

  /// Incremental re-solve: `net` is the post-edit instance, `delta` the
  /// capacity edits that produced it, `prior` the solution of the pre-edit
  /// instance. Backends with capabilities().incremental carry `prior` across
  /// the edits (residual repair for the classical solvers, operating-point
  /// warm re-convergence for the analog substrate); the default rides the
  /// from-scratch solve() and counts a metrics.delta_fallbacks. Either way
  /// the returned flow value matches a from-scratch solve of `net`.
  ///
  /// `state` is null for callers that keep no state; the classical
  /// backends then re-solve on a fresh state and return its edge flows. A
  /// caller streaming edits passes one flow::DeltaState per stream: the
  /// classical backends then advance the residual it keeps
  /// (flow::dinic_resolve and flow::push_relabel_resolve) and return no
  /// edge flows, which the state extracts on request. The state is not
  /// thread-safe: one stream, one thread. The analog backends and the
  /// default ignore it.
  virtual flow::MaxFlowResult solve_delta(const graph::FlowNetwork& net,
                                          const flow::CapacityDelta& delta,
                                          const flow::MaxFlowResult& prior,
                                          flow::DeltaState* state,
                                          const CancelToken& cancel) const {
    (void)prior;
    (void)state;
    flow::MaxFlowResult r = solve(net, cancel);
    r.metrics.delta_fallbacks += 1;
    r.metrics.edges_touched += delta.distinct_edges();
    return r;
  }

  /// Convenience entry: no state, and a never-cancelling token.
  flow::MaxFlowResult solve_delta(const graph::FlowNetwork& net,
                                  const flow::CapacityDelta& delta,
                                  const flow::MaxFlowResult& prior) const {
    return solve_delta(net, delta, prior, nullptr, CancelToken{});
  }
};

using SolverPtr = std::shared_ptr<const ISolver>;

} // namespace aflow::core
