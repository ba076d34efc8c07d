// DC operating-point solver.
//
// Handles the two nonlinearities in the substrate's device set:
//  - piecewise-linear ideal diodes, by state pivoting (solve, flip
//    inconsistent diodes, re-solve) with cycle detection that falls back to
//    flipping only the worst violator — the classic way to solve the linear
//    complementarity system an ideal-diode network defines;
//  - Shockley diodes, by damped Newton with junction-voltage limiting.
//
// A gmin-stepping fallback handles nearly-singular systems.
//
// The linear-algebra work is reused aggressively: the MNA pattern is fixed
// across diode/op-amp state flips, so the solver assembles numeric-only
// in-place updates (circuit::PatternAssembly) and holds one persistent
// SparseLU that is fully factored once per pattern and numerically
// refactored on every subsequent iteration — and across successive solve()
// calls (quasi-static sweeps, source-ramp homotopy). Gmin stepping and
// pivot failures fall back to a full factorisation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "circuit/mna.hpp"
#include "core/reuse_pool.hpp"
#include "flow/maxflow.hpp"
#include "la/lu.hpp"
#include "util/cancel.hpp"

namespace aflow::sim {

class ConvergenceError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct DcOptions {
  int max_iterations = 400;
  double shockley_tol = 1e-6; // volts, junction update convergence
  double gmin = 1e-12;
  la::SparseLU::Ordering ordering = la::SparseLU::Ordering::kMinDegree;
  /// Factorisation-reuse fast path (pattern-stable assembly + numeric-only
  /// refactor). Disable to force the legacy rebuild-everything-per-iteration
  /// behaviour (the baseline in bench_lu_reuse; results match to solver
  /// tolerance either way).
  bool reuse_factorization = true;
  /// Optional cross-instance ordering share: same-pattern systems (e.g. a
  /// batch of reprogrammed crossbars of one topology) skip the
  /// fill-reducing analysis after the first instance. The cache is
  /// thread-safe; share one per batch worker.
  std::shared_ptr<la::OrderingCache> ordering_cache;
  /// Cooperative cancellation: checked once per Newton / diode-flip
  /// iteration; a tripped token unwinds with util::CancelledError. The
  /// default token never cancels.
  util::CancelToken cancel;
};

struct DcStats {
  int iterations = 0;
  /// Split of `iterations` by entry point: warm-started solves
  /// (solve_warm) vs cold solves. warm + cold == iterations always.
  int warm_iterations = 0;
  int cold_iterations = 0;
  bool warm_started = false; // this solve entered through solve_warm
  int diode_flips = 0;
  long long factor_nnz = 0;
  long long full_factors = 0; // factorisations incl. symbolic analysis
  long long refactors = 0;    // numeric-only fast-path factorisations
  /// Refactors entered through a cloned cross-instance SparseLU prototype
  /// (subset of `refactors`): the instance skipped its own symbolic
  /// analysis and numeric pivoting entirely.
  long long prototype_refactors = 0;
};

/// Aggregated warm-start carry-over between same-pattern DcSolver
/// instances. Populate the pieces you have and hand the struct to
/// DcSolver::warm_start; the donor side snapshots its own with
/// DcSolver::export_warm_start.
///
/// The pieces trade speed against bit-stability independently:
///  - lu_prototype: factored donor SparseLU; the first factorisation
///    clones it and enters through the numeric-only refactor (no symbolic
///    analysis, no pivoting). Fastest, but the donor's pivot order can
///    differ from a cold run's in the last bit.
///  - column_order: fill-reducing ordering seed. Bit-safe — the ordering
///    is a pure function of the MNA pattern, so a seeded solve is
///    bit-identical to one that computes the order itself.
///  - prime_state: when non-null, the solver assembles and fully factors
///    at this device state (exactly the cold path's first factorisation)
///    so every subsequent solve rides the numeric refactor over a frozen,
///    cold-identical pivot structure. Borrowed for the duration of the
///    warm_start call only.
struct WarmStart {
  std::shared_ptr<const la::SparseLU> lu_prototype;
  std::vector<int> column_order;
  const circuit::DeviceState* prime_state = nullptr;
};

class DcSolver {
 public:
  explicit DcSolver(const circuit::Netlist& net, DcOptions options = {})
      : assembler_(net), options_(std::move(options)) {
    la::SparseLU::Options lu_opt;
    lu_opt.ordering = options_.ordering;
    lu_ = la::SparseLU(lu_opt);
  }

  /// Solves for the operating point, iterating diode states / Newton to
  /// consistency. `state` is used as the starting point and updated.
  /// Throws ConvergenceError if no consistent state is found.
  /// Repeated calls on the same solver (with updated source values or
  /// device states) reuse the captured pattern and factorisation.
  std::vector<double> solve(circuit::DeviceState& state);

  /// Warm-start entry point for cross-instance reuse (core::ReusePool):
  /// `state` carries the converged device state of a previous same-shape
  /// instance and `x_warm` its node solution. The PWL/saturation/Shockley
  /// states are first aligned to `x_warm`, then the usual iteration runs —
  /// typically converging in a couple of iterations when the instances are
  /// close (the paper's reprogrammed-crossbar scenario). A positive
  /// `iteration_budget` caps the attempt below Options::max_iterations so a
  /// failed warm start costs little before the caller falls back to a cold
  /// homotopy. Iterations are attributed to DcStats::warm_iterations.
  std::vector<double> solve_warm(circuit::DeviceState& state,
                                 std::span<const double> x_warm,
                                 int iteration_budget = 0);

  /// Installs warm-start carry-over from a previous same-pattern instance:
  /// every populated piece of `w` is applied (ordering seed, then LU
  /// prototype, then canonical priming — see WarmStart for what each piece
  /// buys and costs). Priming is a no-op when reuse_factorization is off
  /// (there is no persistent factorisation to prime) and is not counted in
  /// the per-solve DcStats; callers that reconcile factor counters account
  /// for it separately. Call before solve()/solve_warm().
  void warm_start(const WarmStart& w);

  /// Snapshot of this solver's shareable warm-start state (factored LU as
  /// prototype + its pattern-pure column order), for publishing to the
  /// next same-pattern instance. Both fields are empty when nothing has
  /// been factored yet (e.g. reuse_factorization off); prime_state is
  /// never set — the receiver chooses its own canonical state.
  WarmStart export_warm_start() const;

  /// Fingerprint of this circuit's MNA pattern (captures the pattern on
  /// first call; the pattern is state-independent). Keys core::ReusePool.
  std::uint64_t pattern_key();

  const circuit::MnaAssembler& assembler() const { return assembler_; }
  /// Statistics of the most recent solve() call.
  const DcStats& stats() const { return stats_; }

 private:
  std::vector<double> solve_impl(circuit::DeviceState& state,
                                 std::span<const double> x_warm,
                                 int iteration_budget);
  std::vector<double> solve_linear(const circuit::DeviceState& state,
                                   double gmin, bool force_full);
  void factor_full(const la::SparseMatrix& m);

  circuit::MnaAssembler assembler_;
  DcOptions options_;
  DcStats stats_;
  circuit::PatternAssembly pattern_;
  la::SparseLU lu_;
  std::shared_ptr<const la::SparseLU> lu_prototype_;
};

/// Outcome of pooled_warm_start (below).
struct PooledWarmStart {
  bool pool_hit = false;  // the lookup found an entry
  bool primed = false;    // canonical priming ran (one full factorisation)
  bool solved = false;    // x holds the converged warm solution
  std::vector<double> x;
};

/// The bit-stable pooled warm-start protocol shared by the quasi-static
/// sweep and the min-cut dual (see DESIGN.md "Serving architecture"):
/// looks `key` up in `pool`, seeds the pattern-pure column ordering from
/// the pooled prototype, and — when the entry carries a state matching the
/// solver's netlist shape — primes the solver with the cold path's first
/// factorisation (WarmStart::prime_state at the initial device state,
/// counted by `primed`, not in DcStats) and attempts a seeded solve under
/// `iteration_budget`.
///
/// On success (`solved`), `state` is the converged device state and the
/// solver's DcStats hold the attempt — the caller accumulates them as it
/// would any solve. On a failed attempt, `on_failed_attempt` receives the
/// attempt's stats, `state` is reset to the initial device state, and the
/// caller runs its cold solve exactly as if the pool had missed.
PooledWarmStart pooled_warm_start(
    DcSolver& solver, core::ReusePool& pool, std::uint64_t key,
    circuit::DeviceState& state, int iteration_budget,
    const std::function<void(const DcStats&)>& on_failed_attempt);

/// Adds one DC solve's counters to `metrics`: iterations (with their warm
/// and cold split), full factorisations and refactors. The sweep and the
/// min-cut dual account every solve they run this way.
void add_dc_stats(flow::SolveMetrics& metrics, const DcStats& stats);

} // namespace aflow::sim
