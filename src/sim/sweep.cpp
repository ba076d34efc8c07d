#include "sim/sweep.hpp"

#include <utility>

namespace aflow::sim {

SweepResult QuasiStaticSweep::run(const std::vector<double>& values,
                                  const std::vector<Probe>& probes) {
  SweepResult result;
  circuit::DeviceState state = circuit::DeviceState::initial(*net_);
  // Breakpoint baseline: diode states of the cold start (a successful
  // pooled warm start below replaces `state` with the converged seed, but
  // point 0's reported flips must still be measured against rest).
  std::vector<char> prev_diodes = state.diode_on;

  // One solver across the sweep: each point is a small perturbation of the
  // previous one, so the factorisation-reuse fast path carries over.
  DcSolver solver(*net_, options_);

  auto accumulate = [&](const DcStats& s) { add_dc_stats(result.stats, s); };

  // Cross-request warm start (see header): the shared bit-stable pool
  // protocol seeds point 0 from the previous same-pattern request's
  // converged state; a failed attempt falls back to the cold start below.
  std::uint64_t pool_key = 0;
  PooledWarmStart warm;
  const bool pooled =
      pool_ && options_.reuse_factorization && !values.empty();
  if (pooled) {
    pool_key = solver.pattern_key();
    net_->set_vsource_value(source_, values.front());
    warm = pooled_warm_start(solver, *pool_, pool_key, state,
                             warm_iteration_budget, accumulate);
    result.stats.pool_hits = warm.pool_hit ? 1 : 0;
    result.stats.pool_misses = warm.pool_hit ? 0 : 1;
    if (warm.primed) result.stats.full_factors++; // the priming factorisation
  }

  std::vector<double> x;
  // What the pool wants back is the *first* point's converged state: sweeps
  // ramp monotonically, so the best seed for the next same-pattern
  // request's first point is this request's first point, not its last.
  circuit::DeviceState first_state;
  std::vector<double> first_x;
  for (double v : values) {
    net_->set_vsource_value(source_, v);
    if (warm.solved) {
      // Pooled first point, already solved at values.front(); from here
      // every later point warm-starts from its predecessor exactly as a
      // cold sweep would. The solver's stats still hold the attempt.
      x = std::move(warm.x);
      result.stats.warm_started = true;
      warm.solved = false;
    } else {
      x = solver.solve(state);
    }
    accumulate(solver.stats());
    if (first_x.empty()) {
      first_state = state;
      first_x = x;
    }

    int flips = 0;
    for (size_t i = 0; i < state.diode_on.size(); ++i)
      if (state.diode_on[i] != prev_diodes[i]) ++flips;
    if (flips > 0) result.breakpoints.push_back({v, flips});
    prev_diodes = state.diode_on;

    result.source_values.push_back(v);
    std::vector<double> row(probes.size());
    const auto& asmbl = solver.assembler();
    for (size_t p = 0; p < probes.size(); ++p) {
      row[p] = probes[p].kind == Probe::Kind::kNodeVoltage
                   ? asmbl.node_voltage(probes[p].id, x)
                   : asmbl.vsource_current(probes[p].id, x);
    }
    result.trajectory.push_back(std::move(row));
  }

  if (pooled && !first_x.empty()) {
    core::ReuseEntry entry;
    entry.lu = solver.export_warm_start().lu_prototype;
    entry.state =
        std::make_shared<const circuit::DeviceState>(std::move(first_state));
    entry.x = std::make_shared<const std::vector<double>>(std::move(first_x));
    result.stats.pool_evictions = pool_->store(pool_key, std::move(entry));
  }
  return result;
}

} // namespace aflow::sim
