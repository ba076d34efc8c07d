// Transient analysis: backward-Euler integration of the substrate dynamics
// (parasitic capacitors, op-amp single poles, lagged negative resistors)
// with PWL-diode event handling.
//
// The step size follows a geometric schedule (hold, then double every
// `steps_per_dt` accepted steps) so the MNA matrix — which depends on dt —
// is refactorised only at dt changes and diode flips. Backward Euler is
// L-stable, which lets the integration stride over the fast op-amp poles
// once they have settled while remaining faithful to the slow network modes
// that dominate the paper's convergence times.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "circuit/mna.hpp"
#include "la/lu.hpp"
#include "sim/dc.hpp"

namespace aflow::sim {

/// Raised by the transient divergence guard, carrying a diagnosis of what
/// tripped it instead of a bare failure: which probe (and node, for voltage
/// probes) blew past the limit, when, at what step size, and how fast the
/// envelope was growing — plus a pointer to the substrate-model explanation
/// (the idealised negative conductances make widget-internal nodes saddle
/// points under capacitive load; see DESIGN.md "NIC saddle-point
/// instability under capacitive load" for the mechanism and mitigations:
/// NegResFidelity::kLag, SubstrateConfig::stability_margin > 0, parasitics
/// on crossbar wires only).
class DivergenceError : public ConvergenceError {
 public:
  struct Diagnosis {
    std::string probe_label;
    int probe_index = -1;
    int node = -1;          // NodeId for voltage probes, -1 for currents
    double time = 0.0;      // seconds into the transient
    long long step = 0;     // accepted steps so far
    double dt = 0.0;        // step size at the trip
    double value = 0.0;     // offending probe value (may be non-finite)
    /// |v_now| / |v_previous| over the last accepted step; > 1 means a
    /// growing envelope (the saddle-point signature), 0 when no previous
    /// sample exists.
    double growth_per_step = 0.0;
  };

  DivergenceError(std::string message, Diagnosis diagnosis)
      : ConvergenceError(std::move(message)), diagnosis_(std::move(diagnosis)) {}

  const Diagnosis& diagnosis() const { return diagnosis_; }

 private:
  Diagnosis diagnosis_;
};

/// A recorded quantity: a node voltage or a voltage-source current.
struct Probe {
  enum class Kind { kNodeVoltage, kSourceCurrent };
  Kind kind = Kind::kNodeVoltage;
  int id = 0; // NodeId or vsource index
  std::string label;

  static Probe node(circuit::NodeId n, std::string label = {}) {
    return {Kind::kNodeVoltage, n, std::move(label)};
  }
  static Probe source_current(int src, std::string label = {}) {
    return {Kind::kSourceCurrent, src, std::move(label)};
  }
};

struct Waveform {
  std::vector<std::string> labels;
  std::vector<double> time;
  /// samples[k][p] = value of probe p at time[k].
  std::vector<std::vector<double>> samples;

  std::vector<double> series(int probe) const;
};

/// Earliest time T such that |v(t) - v_final| <= rel_tol * |v_final| for all
/// t >= T — the paper's convergence-time definition (Sec. 5.1, 0.1%).
double convergence_time(std::span<const double> time,
                        std::span<const double> value, double rel_tol = 1e-3);

struct TransientOptions {
  double t_stop = 1e-3;
  double dt_initial = 1e-12;
  double dt_max = 1e-6;
  int steps_per_dt = 8;     // accepted steps before dt doubles
  int max_steps = 2000000;
  double gmin = 1e-12;
  int max_event_iterations = 60; // diode-flip resolution within one step
  la::SparseLU::Ordering ordering = la::SparseLU::Ordering::kMinDegree;
  /// Factorisation-reuse fast path (pattern-stable assembly + numeric-only
  /// refactor on diode flips and dt changes). Disable for the
  /// full-factor-per-event baseline; results match either way.
  bool reuse_factorization = true;
  /// Incremental RHS for quiet steps (no diode flip, no dt change): replay
  /// the recorded RHS tape, refreshing only per-device history terms,
  /// instead of re-running the full stamp loop. Bit-identical to the full
  /// assemble by construction; the toggle exists so tests and benches can
  /// A/B the two paths. Only effective with reuse_factorization.
  bool incremental_rhs = true;
  /// Optional cross-instance ordering share (see sim::DcOptions).
  std::shared_ptr<la::OrderingCache> ordering_cache;

  /// If set, the run stops early once every probe has been stable to within
  /// `settle_tol` (relative) for `settle_window` consecutive samples.
  std::optional<double> settle_tol;
  int settle_window = 24;
  /// Abort (throw ConvergenceError) when any probe exceeds this magnitude
  /// or becomes non-finite — the circuit is diverging.
  double divergence_limit = 1e12;
  /// Cooperative cancellation: checked once per accepted step; a tripped
  /// token unwinds with util::CancelledError. The default never cancels.
  util::CancelToken cancel;
};

struct TransientStats {
  long long steps = 0;
  long long factorizations = 0; // total = full_factors + refactors
  long long full_factors = 0;   // factorisations incl. symbolic analysis
  long long refactors = 0;      // numeric-only fast-path factorisations
  /// Refactors entered through a cloned cross-instance SparseLU prototype
  /// (subset of `refactors`).
  long long prototype_refactors = 0;
  long long solves = 0;
  /// Assembly split: full stamp-loop assembles vs RHS-only incremental tape
  /// replays. full_assembles + rhs_refreshes == solves always.
  long long full_assembles = 0;
  long long rhs_refreshes = 0;
  long long step_rejections = 0; // step-size halvings due to clamp chatter
  int diode_flips = 0;
  double end_time = 0.0;
  bool settled = false;
};

class TransientSolver {
 public:
  TransientSolver(const circuit::Netlist& net, TransientOptions options = {})
      : assembler_(net), options_(options) {
    la::SparseLU::Options lu_opt;
    lu_opt.ordering = options_.ordering;
    lu_ = la::SparseLU(lu_opt);
  }

  /// Integrates from t = 0 with initial `state` (typically
  /// DeviceState::initial or a DC point of the pre-step circuit).
  Waveform run(circuit::DeviceState& state, const std::vector<Probe>& probes);

  /// Installs a factored same-pattern SparseLU prototype from a previous
  /// instance (see core::ReusePool); the first factorisation clones it and
  /// enters through `refactor`, falling back to a full factorisation on
  /// pivot degradation as usual.
  void set_lu_prototype(std::shared_ptr<const la::SparseLU> prototype) {
    lu_prototype_ = std::move(prototype);
  }

  /// Fingerprint of the transient MNA pattern (captures it on first call).
  std::uint64_t pattern_key();

  /// Snapshot of the current factorisation for publishing as a
  /// cross-instance prototype; null when nothing has been factored.
  std::shared_ptr<const la::SparseLU> share_factorization() const;

  const TransientStats& stats() const { return stats_; }
  const circuit::MnaAssembler& assembler() const { return assembler_; }
  /// Full MNA solution at the last accepted step of the previous run().
  const std::vector<double>& last_solution() const { return last_x_; }

 private:
  double probe_value(const Probe& p, std::span<const double> x) const;
  DivergenceError make_divergence_error(const Probe& probe, const Waveform& wf,
                                        int probe_index, double value,
                                        double t, double dt) const;

  circuit::MnaAssembler assembler_;
  TransientOptions options_;
  TransientStats stats_;
  circuit::PatternAssembly pattern_;
  la::SparseLU lu_;
  std::shared_ptr<const la::SparseLU> lu_prototype_;
  std::vector<double> last_x_;
};

} // namespace aflow::sim
