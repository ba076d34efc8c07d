// Quasi-static source sweep (Sec. 6.5 of the paper): ramp a voltage source
// slowly enough that the circuit tracks its DC operating point, and record
// the trajectory of selected probes. Diode state changes between sweep
// points are reported as breakpoints — these are the corners (points D, B,
// ...) of the piecewise-linear voltage trajectory in Fig. 15c.
//
// Cross-request warm start: a sweep can consult a core::ReusePool (the same
// per-pattern entries the DC/transient adapters feed) to seed its first
// point from the converged device state of the previous same-pattern
// request, collapsing the first point's PWL search to a couple of
// iterations. The warm path is bit-identical to a cold sweep by
// construction: only the pattern-pure column ordering is taken from the
// pooled prototype, and the solver is primed with the exact factorisation a
// cold sweep would compute first (WarmStart::prime_state), so every reported
// trajectory value is the same arithmetic either way.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/reuse_pool.hpp"
#include "flow/maxflow.hpp"
#include "sim/dc.hpp"
#include "sim/transient.hpp"

namespace aflow::sim {

struct SweepBreakpoint {
  double source_value = 0.0; // sweep value at which diode states changed
  int flips = 0;             // how many diodes changed state
};

struct SweepResult {
  std::vector<double> source_values;
  /// trajectory[k][p] = probe p at sweep point k.
  std::vector<std::vector<double>> trajectory;
  std::vector<SweepBreakpoint> breakpoints;
  /// Counters accumulated over all sweep points: DC iterations (warm ones
  /// come from the pooled first-point seed; warm + cold == iterations),
  /// factorisations including a warm start's canonical priming one, and
  /// ReusePool traffic (zero without a pool; one lookup per run).
  /// warm_started is set when the first point was seeded from the pool.
  flow::SolveMetrics stats;
};

class QuasiStaticSweep {
 public:
  /// `pool` opts into cross-request warm starts (see file comment); the
  /// sweep publishes its factorisation and its first point's converged
  /// state back to the pool, so later sweeps of the same pattern seed
  /// their first point from it.
  QuasiStaticSweep(circuit::Netlist& net, int swept_source,
                   DcOptions options = {},
                   std::shared_ptr<core::ReusePool> pool = nullptr)
      : net_(&net), source_(swept_source), options_(options),
        pool_(std::move(pool)) {}

  /// Iteration cap for the pooled first-point attempt before falling back
  /// to the cold start (bounds the cost of a stale seed).
  int warm_iteration_budget = 48;

  /// DC-solves at each source value (warm-starting diode states from the
  /// previous point, as a slow physical ramp would).
  SweepResult run(const std::vector<double>& values,
                  const std::vector<Probe>& probes);

 private:
  circuit::Netlist* net_;
  int source_;
  DcOptions options_;
  std::shared_ptr<core::ReusePool> pool_;
};

} // namespace aflow::sim
