#include "sim/dc.hpp"

#include <algorithm>
#include <memory>
#include <random>
#include <set>
#include <utility>

namespace aflow::sim {

void DcSolver::factor_full(const la::SparseMatrix& m) {
  la::factor_with_cache(lu_, m, options_.ordering_cache.get());
  stats_.full_factors++;
}

std::vector<double> DcSolver::solve_linear(const circuit::DeviceState& state,
                                           double gmin, bool force_full) {
  circuit::StampOptions opt;
  opt.transient = false;
  opt.gmin = gmin;

  if (!options_.reuse_factorization) {
    // Legacy path: rebuild the matrix and all symbolic analysis from
    // scratch (the baseline bench_lu_reuse measures against).
    la::Triplets a;
    std::vector<double> rhs;
    assembler_.assemble(state, opt, a, rhs);

    la::SparseLU::Options lu_opt;
    lu_opt.ordering = options_.ordering;
    la::SparseLU lu(lu_opt);
    lu.factor(la::SparseMatrix::from_triplets(a));
    stats_.full_factors++;
    stats_.factor_nnz = lu.factor_nnz();

    std::vector<double> x(rhs.size());
    lu.solve(rhs, x);
    return x;
  }

  const bool pattern_reused = assembler_.assemble(state, opt, pattern_);
  const la::SparseMatrix& m = pattern_.matrix();
  // First factorisation: try the cross-instance prototype (clone the
  // previous same-pattern factors and enter through the numeric-only
  // refactor — no symbolic analysis, no fresh pivoting).
  const la::PrototypeEntry entry =
      !lu_.factored() && !force_full
          ? la::enter_prototype(lu_, lu_prototype_.get(), m)
          : la::PrototypeEntry::kNotEntered;
  if (entry == la::PrototypeEntry::kRefactored) {
    stats_.refactors++;
    stats_.prototype_refactors++;
  } else if (entry == la::PrototypeEntry::kFullFactored) {
    stats_.full_factors++; // pivot degraded: fell back inside refactor()
  } else if (!pattern_reused || !lu_.factored() || force_full) {
    factor_full(m);
  } else if (lu_.refactor(m)) {
    stats_.refactors++;
  } else {
    stats_.full_factors++; // refactor fell back to a full factorisation
  }
  stats_.factor_nnz = lu_.factor_nnz();

  std::vector<double> x(pattern_.rhs().size());
  lu_.solve(pattern_.rhs(), x);
  return x;
}

std::vector<double> DcSolver::solve(circuit::DeviceState& state) {
  return solve_impl(state, {}, 0);
}

std::vector<double> DcSolver::solve_warm(circuit::DeviceState& state,
                                         std::span<const double> x_warm,
                                         int iteration_budget) {
  return solve_impl(state, x_warm, iteration_budget);
}

void DcSolver::warm_start(const WarmStart& w) {
  if (!w.column_order.empty()) lu_.seed_column_order(w.column_order);
  if (w.lu_prototype) lu_prototype_ = w.lu_prototype;
  if (w.prime_state && options_.reuse_factorization) {
    circuit::StampOptions opt;
    opt.transient = false;
    opt.gmin = options_.gmin;
    assembler_.assemble(*w.prime_state, opt, pattern_);
    la::factor_with_cache(lu_, pattern_.matrix(),
                          options_.ordering_cache.get());
  }
}

WarmStart DcSolver::export_warm_start() const {
  WarmStart w;
  if (!lu_.factored()) return w;
  w.lu_prototype = std::make_shared<const la::SparseLU>(lu_);
  w.column_order = lu_.column_order();
  return w;
}

std::uint64_t DcSolver::pattern_key() {
  if (!pattern_.ready()) {
    // The pattern is state-independent, so any state of the right shape
    // captures it; the assembled values are overwritten by the next solve.
    circuit::StampOptions opt;
    opt.transient = false;
    opt.gmin = options_.gmin;
    circuit::DeviceState s0 = circuit::DeviceState::initial(assembler_.netlist());
    assembler_.assemble(s0, opt, pattern_);
  }
  return pattern_.matrix().pattern_key();
}

std::vector<double> DcSolver::solve_impl(circuit::DeviceState& state,
                                         std::span<const double> x_warm,
                                         int iteration_budget) {
  stats_ = {};
  std::set<std::vector<char>> seen_diode_states;
  auto policy = circuit::MnaAssembler::FlipPolicy::kAll;
  std::mt19937_64 rng(0x5eed5eedULL);

  const bool warm = !x_warm.empty();
  stats_.warm_started = warm;
  if (warm) {
    // Align the carried device state with the warm solution so the first
    // linear solve starts from a consistent linearisation (a no-op when
    // `state` is exactly the converged state that produced `x_warm`).
    assembler_.update_shockley_points(x_warm, state);
    circuit::StampOptions dc_opt;
    dc_opt.transient = false;
    assembler_.update_opamp_saturation(x_warm, dc_opt, state);
    assembler_.update_pwl_diode_states(x_warm, state);
  }

  int max_iterations = options_.max_iterations;
  if (iteration_budget > 0)
    max_iterations = std::min(max_iterations, iteration_budget);

  std::vector<double> x;
  for (int iter = 0; iter < max_iterations; ++iter) {
    options_.cancel.check();
    stats_.iterations = iter + 1;
    (warm ? stats_.warm_iterations : stats_.cold_iterations) = iter + 1;

    // gmin stepping: if the system is singular at the nominal gmin, retry
    // with progressively larger leakage. The retries change the numeric
    // regime, so they force a full factorisation.
    double gmin = options_.gmin;
    bool force_full = false;
    for (;;) {
      try {
        x = solve_linear(state, gmin, force_full);
        break;
      } catch (const la::SingularMatrixError&) {
        gmin = (gmin == 0.0) ? 1e-12 : gmin * 100.0;
        force_full = true;
        if (gmin > 1e-4) throw;
      }
    }

    const double shockley_dv = assembler_.update_shockley_points(x, state);

    circuit::StampOptions dc_opt;
    dc_opt.transient = false;
    const int sat_flips = assembler_.update_opamp_saturation(x, dc_opt, state);

    // Escalate the flip policy whenever the PWL state vector repeats:
    // simultaneous flipping cycles on hard complementarity instances,
    // worst-violator can two-cycle, randomised single flips break ties.
    std::vector<char> state_key = state.diode_on;
    state_key.insert(state_key.end(), state.opamp_sat.begin(),
                     state.opamp_sat.end());
    if (policy != circuit::MnaAssembler::FlipPolicy::kRandom &&
        !seen_diode_states.insert(state_key).second) {
      policy = policy == circuit::MnaAssembler::FlipPolicy::kAll
                   ? circuit::MnaAssembler::FlipPolicy::kWorst
                   : circuit::MnaAssembler::FlipPolicy::kRandom;
    }
    const int flips =
        assembler_.update_pwl_diode_states(x, state, policy, rng());
    stats_.diode_flips += flips + sat_flips;

    if (flips == 0 && sat_flips == 0 && shockley_dv < options_.shockley_tol)
      return x;
  }
  throw ConvergenceError("DcSolver: no consistent operating point after " +
                         std::to_string(max_iterations) + " iterations");
}

PooledWarmStart pooled_warm_start(
    DcSolver& solver, core::ReusePool& pool, std::uint64_t key,
    circuit::DeviceState& state, int iteration_budget,
    const std::function<void(const DcStats&)>& on_failed_attempt) {
  PooledWarmStart out;
  const std::shared_ptr<const core::ReuseEntry> warm = pool.find(key);
  out.pool_hit = warm != nullptr;
  if (!warm) return out;

  // Bit-safe ordering seed: the prototype's column order is the pure
  // pattern function a cold run would compute itself.
  if (warm->lu && warm->lu->factored()) {
    WarmStart seed;
    seed.column_order = warm->lu->column_order();
    solver.warm_start(seed);
  }
  const circuit::Netlist& net = solver.assembler().netlist();
  if (!warm->shapes_match(net, solver.assembler().num_unknowns())) return out;

  // Canonical priming: freeze the factorisation provenance the cold path
  // would have, then attempt the seeded solve.
  WarmStart primer;
  primer.prime_state = &state;
  solver.warm_start(primer);
  out.primed = true;
  circuit::DeviceState attempt = *warm->state;
  auto failed = [&] {
    on_failed_attempt(solver.stats());
    state = circuit::DeviceState::initial(net);
  };
  try {
    out.x = solver.solve_warm(attempt, *warm->x, iteration_budget);
    state = std::move(attempt);
    out.solved = true;
  } catch (const ConvergenceError&) {
    failed();
  } catch (const la::SingularMatrixError&) {
    failed();
  }
  return out;
}

void add_dc_stats(flow::SolveMetrics& metrics, const DcStats& stats) {
  metrics.iterations += stats.iterations;
  metrics.warm_iterations += stats.warm_iterations;
  metrics.cold_iterations += stats.cold_iterations;
  metrics.full_factors += stats.full_factors;
  metrics.refactors += stats.refactors;
}

} // namespace aflow::sim
