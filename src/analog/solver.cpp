#include "analog/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>

#include "sim/dc.hpp"

namespace aflow::analog {

namespace {

/// Fastest time constant of the built circuit, used to seed the transient
/// step size.
double reference_tau(const SubstrateConfig& config) {
  double tau = 0.0;
  if (config.fidelity != NegResFidelity::kIdeal) tau = config.lag_tau();
  if (config.parasitic_capacitance > 0.0) {
    const double rc = config.lrs_resistance * config.parasitic_capacitance;
    tau = tau > 0.0 ? std::min(tau, rc) : rc;
  }
  return tau;
}

void fill_common(const MaxFlowCircuit& c, const circuit::MnaAssembler& mna,
                 std::span<const double> x, const graph::FlowNetwork& net,
                 AnalogFlowResult& out) {
  out.flow_value = c.quantizer.to_flow(c.flow_value_volts(x, mna));
  const double iflow = mna.vsource_current(c.vflow_source, x);
  out.steady_iflow = iflow;
  out.flow_value_hw = c.quantizer.to_flow(c.flow_value_volts_from_iflow(iflow));
  out.edge_flow = c.edge_flows(x, mna);
  out.max_conservation_violation =
      c.quantizer.to_flow(c.max_conservation_violation_volts(x, mna, net));
  out.counts = count_devices(c.netlist);
}

} // namespace

AnalogFlowResult AnalogMaxFlowSolver::solve(
    const graph::FlowNetwork& net, const util::CancelToken& cancel) const {
  switch (options_.method) {
    case SolveMethod::kSteadyState: return solve_steady_state(net, cancel);
    case SolveMethod::kTransient: return solve_transient(net, cancel);
  }
  return {};
}

AnalogFlowResult AnalogMaxFlowSolver::solve_delta(
    const graph::FlowNetwork& net, const flow::CapacityDelta& delta,
    const util::CancelToken& cancel) const {
  const auto fallback = [&] {
    AnalogFlowResult out = solve(net, cancel);
    out.delta_fallbacks = 1;
    out.edges_touched = delta.distinct_edges();
    return out;
  };
  // Transient must start from rest (the settling time is the measurement),
  // and without pooled state there is no operating point to carry.
  if (options_.method != SolveMethod::kSteadyState || !has_reuse_pool())
    return fallback();
  // Trust region: outside it the pooled operating point is too far from
  // the edited instance's for a reliable warm Newton re-convergence.
  // max_relative_change() is +inf for unmeasured deltas, so those fall
  // back too. (The comparisons are written to reject NaN as well.)
  if (!(delta.max_relative_change() <= options_.delta_trust_relative))
    return fallback();
  if (net.num_edges() > 0 &&
      !(delta.distinct_edges() <=
        options_.delta_max_edge_fraction * net.num_edges()))
    return fallback();

  // Inside the trust region the steady-state path already is the delta
  // path: it re-converges from the pooled same-pattern operating point via
  // DcSolver::solve_warm at full drive, skipping the Vflow homotopy. Count
  // a delta_solve only when the warm carry actually happened (a pool miss
  // or failed warm attempt ran the cold ramp — that is a fallback).
  AnalogFlowResult out = solve_steady_state(net, cancel);
  if (out.warm_started)
    out.delta_solves = 1;
  else
    out.delta_fallbacks = 1;
  out.edges_touched = delta.distinct_edges();
  return out;
}

AnalogFlowResult AnalogMaxFlowSolver::solve_steady_state(
    const graph::FlowNetwork& net, const util::CancelToken& cancel) const {
  // The explicit-NIC circuit adds op-amp rail states to the DC
  // complementarity problem, which routinely cycles; the physical way to
  // find its operating point is to let the (railed, hence bounded) dynamics
  // settle, so delegate to the transient engine.
  if (options_.config.fidelity == NegResFidelity::kOpAmpNic) {
    AnalogSolveOptions topt = options_;
    topt.method = SolveMethod::kTransient;
    topt.record_edge_waveforms = false;
    AnalogFlowResult out =
        AnalogMaxFlowSolver(topt).solve_transient(net, cancel);
    out.waveform = {};
    return out;
  }

  MaxFlowCircuit c = map(net);
  circuit::DeviceState state = circuit::DeviceState::initial(c.netlist);

  // One DcSolver serves the warm attempt and the whole homotopy ramp: the
  // MNA pattern is independent of the source value, so every solve after
  // the first factorisation rides the numeric refactor fast path.
  sim::DcOptions dc_opt;
  dc_opt.reuse_factorization = options_.reuse_factorization;
  dc_opt.ordering_cache = options_.ordering_cache;
  dc_opt.cancel = cancel;
  sim::DcSolver solver(c.netlist, dc_opt);

  const double v_target = options_.config.vflow;
  AnalogFlowResult out;
  std::vector<double> x;

  auto accumulate = [&](const sim::DcStats& s) {
    out.dc_iterations += s.iterations;
    out.warm_iterations += s.warm_iterations;
    out.cold_iterations += s.cold_iterations;
    out.full_factors += s.full_factors;
    out.refactors += s.refactors;
    out.prototype_refactors += s.prototype_refactors;
  };

  // Cross-instance warm start: fetch the previous same-pattern instance's
  // factored LU prototype and converged state from the pool and try to
  // converge directly at full drive, skipping the homotopy ramp entirely.
  // Any failure falls back to the cold ramp below.
  core::ReusePool* pool =
      options_.reuse_factorization ? options_.reuse_pool.get() : nullptr;
  std::uint64_t pool_key = 0;
  bool solved = false;
  if (pool) {
    pool_key = solver.pattern_key();
    const std::shared_ptr<const core::ReuseEntry> warm = pool->find(pool_key);
    out.pool_hits = warm ? 1 : 0;
    out.pool_misses = warm ? 0 : 1;
    if (warm && warm->lu) {
      sim::WarmStart seed;
      seed.lu_prototype = warm->lu;
      solver.warm_start(seed);
    }
    // Degradation ladder, pool rung: an entry that carries a device state
    // which no longer fits this pattern (64-bit key collision, or a stale /
    // corrupt entry) is dropped outright so it cannot keep poisoning every
    // future lookup of this key; the closing store below rebuilds it from
    // this solve's converged state.
    if (warm && warm->state &&
        !warm->shapes_match(c.netlist, solver.assembler().num_unknowns())) {
      pool->drop(pool_key);
      out.fallback_pool_rebuilds = 1;
    }
    if (warm &&
        warm->shapes_match(c.netlist, solver.assembler().num_unknowns())) {
      c.netlist.set_vsource_value(c.vflow_source, v_target);
      circuit::DeviceState attempt = *warm->state;
      auto warm_failed = [&] {
        // Warm residual not below the continuation threshold within the
        // budget (or the carried state stamps a singular system even
        // through gmin stepping): pay for the attempt and run the ramp
        // from a cold state.
        accumulate(solver.stats());
        state = circuit::DeviceState::initial(c.netlist);
      };
      try {
        x = solver.solve_warm(attempt, *warm->x,
                              options_.warm_iteration_budget);
        accumulate(solver.stats());
        state = std::move(attempt);
        solved = true;
        out.warm_started = true;
      } catch (const sim::ConvergenceError&) {
        warm_failed();
      } catch (const la::SingularMatrixError&) {
        warm_failed();
      }
    }
  }

  // Source-ramp homotopy (cold path): walking Vflow up from zero mirrors
  // the physical turn-on and keeps each diode-state solve a small
  // perturbation of the previous one — a cold solve at full drive can
  // cycle on large graphs.
  double v_done = 0.0;
  double step = v_target / 4.0;
  while (!solved && v_done < v_target) {
    const double v_try = std::min(v_target, v_done + step);
    c.netlist.set_vsource_value(c.vflow_source, v_try);
    circuit::DeviceState attempt = state;
    try {
      x = solver.solve(attempt);
    } catch (const sim::ConvergenceError&) {
      accumulate(solver.stats());
      step *= 0.5;
      if (step < v_target / 4096.0) throw;
      continue;
    }
    accumulate(solver.stats());
    state = std::move(attempt);
    v_done = v_try;
    step *= 2.0;
  }

  if (pool) {
    core::ReuseEntry entry;
    entry.lu = solver.export_warm_start().lu_prototype;
    entry.state = std::make_shared<const circuit::DeviceState>(state);
    entry.x = std::make_shared<const std::vector<double>>(x);
    out.pool_evictions = pool->store(pool_key, std::move(entry));
  }

  fill_common(c, solver.assembler(), x, net, out);
  out.iterations = out.dc_iterations;
  return out;
}

AnalogFlowResult AnalogMaxFlowSolver::solve_transient(
    const graph::FlowNetwork& net, const util::CancelToken& cancel) const {
  MaxFlowCircuit c = map(net);

  const double tau = reference_tau(options_.config);
  if (tau <= 0.0) {
    // Purely resistive circuit: the "transient" is instantaneous.
    AnalogFlowResult out = solve_steady_state(net, cancel);
    out.convergence_time = 0.0;
    return out;
  }

  sim::TransientOptions topt;
  topt.dt_initial = options_.dt_initial.value_or(tau / 8.0);
  topt.dt_max = options_.dt_max.value_or(tau * 4096.0);
  topt.t_stop = options_.t_stop;
  topt.settle_tol = options_.settle_tol;
  topt.reuse_factorization = options_.reuse_factorization;
  topt.ordering_cache = options_.ordering_cache;
  topt.cancel = cancel;

  std::vector<sim::Probe> probes;
  probes.push_back(sim::Probe::source_current(c.vflow_source, "Iflow"));
  if (options_.record_edge_waveforms) {
    for (size_t e = 0; e < c.edge_node.size(); ++e) {
      if (c.edge_node[e] < 0) continue;
      probes.push_back(
          sim::Probe::node(c.edge_node[e], "V(x" + std::to_string(e) + ")"));
    }
  }

  sim::TransientSolver solver(c.netlist, topt);

  // Cross-instance prototype: enter the first factorisation through the
  // previous same-pattern instance's factors. (No device-state carry for
  // transient: the run must start from rest — the convergence time IS the
  // measured quantity.)
  AnalogFlowResult out;
  core::ReusePool* pool =
      options_.reuse_factorization ? options_.reuse_pool.get() : nullptr;
  std::uint64_t pool_key = 0;
  if (pool) {
    pool_key = solver.pattern_key();
    const std::shared_ptr<const core::ReuseEntry> entry = pool->find(pool_key);
    out.pool_hits = entry ? 1 : 0;
    out.pool_misses = entry ? 0 : 1;
    if (entry && entry->lu) solver.set_lu_prototype(entry->lu);
  }

  circuit::DeviceState state = circuit::DeviceState::initial(c.netlist);
  sim::Waveform wf = solver.run(state, probes);

  if (pool) {
    core::ReuseEntry entry;
    entry.lu = solver.share_factorization();
    out.pool_evictions = pool->store(pool_key, std::move(entry));
  }

  // Convert the Iflow series into the flow value J(t) (volts, Eq. 7a).
  for (auto& row : wf.samples) row[0] = c.flow_value_volts_from_iflow(row[0]);
  wf.labels[0] = "J";

  // Read the solution directly off the last accepted transient step (the
  // run stops only once the probes are settled).
  fill_common(c, solver.assembler(), solver.last_solution(), net, out);
  out.convergence_time = sim::convergence_time(
      wf.time, wf.series(0), options_.convergence_band);
  out.full_factors = solver.stats().full_factors;
  out.refactors = solver.stats().refactors;
  out.prototype_refactors = solver.stats().prototype_refactors;
  out.rhs_refreshes = solver.stats().rhs_refreshes;
  out.iterations = solver.stats().solves;
  out.waveform = std::move(wf);
  return out;
}

} // namespace aflow::analog
