// End-to-end analog max-flow solver: builds the substrate circuit for an
// instance, runs it (DC steady state, or full transient with the Vflow step
// of Sec. 3.2), and reads the solution back in problem units.
//
// Two solve methods:
//  - kSteadyState: the operating point the substrate converges to; used for
//    solution-quality experiments (quantization, variation, Vflow studies).
//  - kTransient: integrates the step response and measures the paper's
//    convergence time (first time the flow value stays within 0.1% of its
//    final value) — the quantity plotted in Fig. 10.
#pragma once

#include <memory>
#include <optional>

#include "analog/mapper.hpp"
#include "analog/substrate_config.hpp"
#include "core/reuse_pool.hpp"
#include "flow/delta.hpp"
#include "flow/maxflow.hpp"
#include "sim/transient.hpp"
#include "util/cancel.hpp"

namespace aflow::analog {

enum class SolveMethod { kSteadyState, kTransient };

struct AnalogSolveOptions {
  SubstrateConfig config;
  QuantizationMode quantization = QuantizationMode::kRound;
  SolveMethod method = SolveMethod::kSteadyState;
  ResistancePerturbation perturb;

  // Transient controls (defaults derived from the device time constants
  // when left unset).
  std::optional<double> dt_initial;
  std::optional<double> dt_max;
  double t_stop = 1e-3;
  double settle_tol = 1e-6;
  double convergence_band = 1e-3; // 0.1% band of Sec. 5.1
  /// Record V(x_e) for every edge (small circuits; Fig. 5c waveforms).
  bool record_edge_waveforms = false;

  /// Factorisation-reuse fast path through the DC / transient engines
  /// (see sim::DcOptions::reuse_factorization). Disable for the
  /// rebuild-every-iteration baseline.
  bool reuse_factorization = true;
  /// Optional cross-instance symbolic-analysis share: same-shape circuits
  /// (one crossbar topology, different programmed conductances) skip the
  /// fill-reducing ordering after the first instance. Thread-safe, and its
  /// seed is a pure function of the pattern, so share it as widely as
  /// convenient (per batch worker in core::BatchEngine; ONE per solver
  /// bank, across all sessions, in core::ServeEngine).
  std::shared_ptr<la::OrderingCache> ordering_cache;
  /// Optional cross-instance warm-start pool (see core::ReusePool): shares
  /// factored SparseLU prototypes and, for steady-state solves, seeds
  /// Newton from the previous same-shape instance's converged device state,
  /// skipping the Vflow homotopy when the warm attempt converges at full
  /// drive. Thread-safe; sharing width is a reproducibility choice, not a
  /// safety one (see the discipline note in core/reuse_pool.hpp): warm
  /// results depend on the order instances feed the pool, so they are
  /// reproducible in deterministic batches but not bit-stable across
  /// arbitrary schedules. Requires reuse_factorization.
  std::shared_ptr<core::ReusePool> reuse_pool;
  /// Iteration cap for the warm full-drive attempt before falling back to
  /// the cold homotopy ramp (bounds the cost of a failed warm start).
  int warm_iteration_budget = 48;

  /// Trust region for solve_delta: the delta path re-converges Newton from
  /// the pooled previous operating point, which is only a good initial
  /// guess while the edits keep the new operating point nearby. A delta
  /// whose largest per-edge relative change exceeds delta_trust_relative,
  /// or that touches more than delta_max_edge_fraction of the edges, takes
  /// the full solve (homotopy ramp) instead — counted as a delta fallback.
  double delta_trust_relative = 0.5;
  double delta_max_edge_fraction = 0.25;
};

/// The counters come from the flow::SolveMetrics base: `iterations` counts
/// linear solves (DC iterations, or transient steps), warm_started marks a
/// result from a warm-started solve (cross-instance device state, homotopy
/// skipped), pool_* is this solve's ReusePool traffic (zero without a pool),
/// exactly one of delta_solves / delta_fallbacks ticks per solve_delta
/// call, and fallback_pool_rebuilds marks a stale pooled entry dropped and
/// rebuilt by this solve's closing store.
struct AnalogFlowResult : flow::SolveMetrics {
  /// Flow value in problem units from the per-edge ("debug") readout.
  double flow_value = 0.0;
  /// Flow value from the hardware readout J = t*Vflow - r*Iflow (Eq. 7a).
  double flow_value_hw = 0.0;
  std::vector<double> edge_flow; // problem units, parallel to input edges
  double max_conservation_violation = 0.0; // problem units

  /// Transient only: the paper's convergence time, seconds.
  double convergence_time = 0.0;
  /// Waveform of the flow value (volts); with record_edge_waveforms, edge
  /// voltages follow as additional series.
  sim::Waveform waveform;

  MapperCounts counts;
  double steady_iflow = 0.0; // amps delivered by the Vflow source
  /// DC Newton/PWL iterations; warm + cold iterations == dc_iterations.
  int dc_iterations = 0;

  /// Relative error against an exact flow value.
  double relative_error(double exact) const {
    return exact == 0.0 ? 0.0 : std::abs(flow_value - exact) / exact;
  }
};

class AnalogMaxFlowSolver {
 public:
  explicit AnalogMaxFlowSolver(AnalogSolveOptions options = {})
      : options_(std::move(options)) {}

  /// `cancel` is per-call (adapter instances are shared across serve
  /// sessions, so the token must not live in the options): it threads into
  /// the DC Newton loop and the transient step loop, which check it at
  /// every iteration boundary and unwind with util::CancelledError.
  AnalogFlowResult solve(const graph::FlowNetwork& net,
                         const util::CancelToken& cancel = {}) const;

  /// Incremental re-solve for a capacity-edited instance. The analog
  /// carry-over state is the ReusePool entry of the pattern (factored LU
  /// prototype + previous converged operating point), not a caller-held
  /// prior, so the signature takes only the post-edit network and the
  /// delta. Within the trust region (AnalogSolveOptions::delta_trust_*)
  /// the steady-state path re-converges Newton from the pooled operating
  /// point at full drive, skipping the Vflow homotopy ramp; outside it —
  /// or for the transient method, which must start from rest because the
  /// settling time is the measured quantity — it falls back to solve().
  /// delta_solves / delta_fallbacks in the result record which path ran.
  AnalogFlowResult solve_delta(const graph::FlowNetwork& net,
                               const flow::CapacityDelta& delta,
                               const util::CancelToken& cancel = {}) const;

  /// True when the solver carries cross-instance state (factored
  /// prototypes + operating points) between solves — the precondition for
  /// solve_delta's fast path.
  bool has_reuse_pool() const {
    return options_.reuse_pool != nullptr && options_.reuse_factorization;
  }

  /// The circuit that `solve` would run, for inspection and tests.
  MaxFlowCircuit map(const graph::FlowNetwork& net) const {
    return build_maxflow_circuit(net, options_.config, options_.quantization,
                                 options_.perturb);
  }

  const AnalogSolveOptions& options() const { return options_; }

 private:
  AnalogFlowResult solve_steady_state(const graph::FlowNetwork& net,
                                      const util::CancelToken& cancel) const;
  AnalogFlowResult solve_transient(const graph::FlowNetwork& net,
                                   const util::CancelToken& cancel) const;

  AnalogSolveOptions options_;
};

} // namespace aflow::analog
