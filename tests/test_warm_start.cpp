// Cross-instance warm-start layer: ReusePool semantics, DcSolver warm
// entry, SparseLU prototype entry, transient incremental RHS, and the
// deterministic-batch reproducibility contract.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "analog/solver.hpp"
#include "core/batch_engine.hpp"
#include "core/registry.hpp"
#include "core/reuse_pool.hpp"
#include "core/workload.hpp"
#include "graph/generators.hpp"
#include "sim/dc.hpp"
#include "sim/transient.hpp"

namespace analog = aflow::analog;
namespace circuit = aflow::circuit;
namespace core = aflow::core;
namespace graph = aflow::graph;
namespace la = aflow::la;
namespace sim = aflow::sim;

namespace {

analog::AnalogSolveOptions reconfig_options(bool warm) {
  analog::AnalogSolveOptions opt;
  opt.config.fidelity = analog::NegResFidelity::kIdeal;
  opt.config.parasitic_capacitance = 0.0;
  opt.config.vflow = 10.0;
  // Dedicated level sources: the MNA pattern depends only on the graph
  // topology, so capacity variants actually share a pool entry.
  opt.config.dedicated_level_sources = true;
  opt.method = analog::SolveMethod::kSteadyState;
  opt.ordering_cache = std::make_shared<la::OrderingCache>();
  if (warm) opt.reuse_pool = std::make_shared<core::ReusePool>();
  return opt;
}

} // namespace

TEST(ReusePool, StoreFindAndMergeSemantics) {
  core::ReusePool pool;
  EXPECT_EQ(pool.find(42), nullptr);
  EXPECT_EQ(pool.stats().misses, 1);

  core::ReuseEntry dc;
  dc.state = std::make_shared<const circuit::DeviceState>();
  dc.x = std::make_shared<const std::vector<double>>(3, 1.0);
  pool.store(42, dc);
  const auto hit = pool.find(42);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->x->size(), 3u);
  EXPECT_EQ(pool.size(), 1u);

  // A partial store (transient publishes only the LU) must not wipe the
  // device state a DC store published under the same key.
  core::ReuseEntry transient;
  transient.lu = std::make_shared<const la::SparseLU>();
  pool.store(42, transient);
  const auto merged = pool.find(42);
  ASSERT_NE(merged, nullptr);
  EXPECT_NE(merged->lu, nullptr);
  ASSERT_NE(merged->state, nullptr);
  ASSERT_NE(merged->x, nullptr);
  EXPECT_EQ(merged->x->size(), 3u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(SparseMatrixPatternKey, CachedAcrossValueUpdates) {
  la::Triplets t(3, 3);
  t.add(0, 0, 2.0);
  t.add(1, 1, 3.0);
  t.add(2, 2, 4.0);
  t.add(0, 1, -1.0);
  std::vector<int> slots;
  la::SparseMatrix m = la::SparseMatrix::from_triplets(t, &slots);
  const std::uint64_t key = m.pattern_key();
  EXPECT_NE(key, 0u);

  // Numeric-only update: same pattern, same key.
  la::Triplets t2(3, 3);
  t2.add(0, 0, 5.0);
  t2.add(1, 1, 6.0);
  t2.add(2, 2, 7.0);
  t2.add(0, 1, -2.0);
  m.update_values(t2.entries(), slots);
  EXPECT_EQ(m.pattern_key(), key);

  // Different pattern, different key.
  la::Triplets t3(3, 3);
  t3.add(0, 0, 2.0);
  t3.add(1, 1, 3.0);
  t3.add(2, 2, 4.0);
  t3.add(1, 0, -1.0);
  const la::SparseMatrix m3 = la::SparseMatrix::from_triplets(t3);
  EXPECT_NE(m3.pattern_key(), key);
}

TEST(DcSolverWarmStart, CountersReconcileAndWarmConvergesFaster) {
  const auto instances = core::load_batch("grid:side=5,seed=7,vary=2");
  const analog::AnalogSolveOptions opt = reconfig_options(/*warm=*/false);
  const analog::MaxFlowCircuit c0 =
      analog::AnalogMaxFlowSolver(opt).map(instances[0]);

  sim::DcSolver solver(c0.netlist);
  circuit::DeviceState state = circuit::DeviceState::initial(c0.netlist);
  const std::vector<double> x_cold = solver.solve(state);
  const sim::DcStats cold = solver.stats();
  EXPECT_FALSE(cold.warm_started);
  EXPECT_EQ(cold.warm_iterations, 0);
  EXPECT_EQ(cold.cold_iterations, cold.iterations);

  // Warm restart from the converged state: must converge (in one or two
  // iterations — nothing changed) and attribute its work as warm.
  circuit::DeviceState warm_state = state;
  const std::vector<double> x_warm = solver.solve_warm(warm_state, x_cold);
  const sim::DcStats warm = solver.stats();
  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.cold_iterations, 0);
  EXPECT_EQ(warm.warm_iterations, warm.iterations);
  EXPECT_LE(warm.iterations, 2);
  EXPECT_LT(warm.iterations, cold.iterations);
  ASSERT_EQ(x_warm.size(), x_cold.size());
  for (size_t i = 0; i < x_warm.size(); ++i)
    EXPECT_NEAR(x_warm[i], x_cold[i], 1e-9) << "unknown " << i;
}

TEST(DcSolverWarmStart, PrototypeEntrySkipsSymbolicAnalysis) {
  const auto instances = core::load_batch("grid:side=5,seed=9,vary=2");
  const analog::AnalogSolveOptions opt = reconfig_options(/*warm=*/false);
  const analog::AnalogMaxFlowSolver mapper(opt);
  const analog::MaxFlowCircuit c0 = mapper.map(instances[0]);
  const analog::MaxFlowCircuit c1 = mapper.map(instances[1]);

  sim::DcSolver first(c0.netlist);
  circuit::DeviceState s0 = circuit::DeviceState::initial(c0.netlist);
  first.solve(s0);
  const auto prototype = first.export_warm_start().lu_prototype;
  ASSERT_NE(prototype, nullptr);

  sim::DcSolver second(c1.netlist);
  ASSERT_EQ(second.pattern_key(), first.pattern_key())
      << "capacity variants must share the MNA pattern";
  sim::WarmStart w;
  w.lu_prototype = prototype;
  second.warm_start(w);
  circuit::DeviceState s1 = circuit::DeviceState::initial(c1.netlist);
  second.solve(s1);
  EXPECT_EQ(second.stats().full_factors, 0);
  EXPECT_GE(second.stats().prototype_refactors, 1);
}

TEST(WarmStart, WarmBatchMatchesColdBatchUnderDeterministicOrder) {
  // The satellite contract: a warm-started reconfiguration batch must
  // reproduce the cold-started results. Flow values agree to 1e-9 (the
  // final factorisation's pivot order can differ in provenance — prototype
  // vs own full factor — which perturbs last-bit rounding), and the warm
  // run itself is bit-reproducible: same pool, same order, same bits.
  const auto instances = core::load_batch("grid:side=6,seed=5,vary=6");

  const analog::AnalogMaxFlowSolver cold(reconfig_options(false));
  const analog::AnalogMaxFlowSolver warm_a(reconfig_options(true));
  const analog::AnalogMaxFlowSolver warm_b(reconfig_options(true));

  int warm_started = 0;
  for (const auto& net : instances) {
    const auto rc = cold.solve(net);
    const auto ra = warm_a.solve(net);
    const auto rb = warm_b.solve(net);
    const double scale = std::max(1.0, std::abs(rc.flow_value));
    EXPECT_NEAR(ra.flow_value, rc.flow_value, 1e-9 * scale);
    // Bit-identical across repeated warm runs in the same order.
    EXPECT_EQ(ra.flow_value, rb.flow_value);
    ASSERT_EQ(ra.edge_flow.size(), rb.edge_flow.size());
    for (size_t e = 0; e < ra.edge_flow.size(); ++e)
      EXPECT_EQ(ra.edge_flow[e], rb.edge_flow[e]);
    // warm + cold iteration counters reconcile with the total.
    EXPECT_EQ(ra.warm_iterations + ra.cold_iterations, ra.dc_iterations);
    EXPECT_EQ(rc.warm_iterations, 0);
    if (ra.warm_started) ++warm_started;
  }
  // Everything after the first instance warm-starts on this workload.
  EXPECT_GE(warm_started, static_cast<int>(instances.size()) - 1);
}

TEST(WarmStart, FallsBackCleanlyWhenPatternChangesMidBatch) {
  // Alternating shapes through one warm solver: each shape keeps its own
  // pool entry, results match the cold reference, nothing leaks across.
  const auto small = core::load_batch("grid:side=4,seed=3,vary=3");
  const auto large = core::load_batch("grid:side=5,seed=3,vary=3");
  std::vector<graph::FlowNetwork> mixed;
  for (size_t i = 0; i < small.size(); ++i) {
    mixed.push_back(small[i]);
    mixed.push_back(large[i]);
  }

  const analog::AnalogSolveOptions warm_opt = reconfig_options(true);
  const analog::AnalogMaxFlowSolver warm(warm_opt);
  const analog::AnalogMaxFlowSolver cold(reconfig_options(false));
  for (const auto& net : mixed) {
    const auto rw = warm.solve(net);
    const auto rc = cold.solve(net);
    const double scale = std::max(1.0, std::abs(rc.flow_value));
    EXPECT_NEAR(rw.flow_value, rc.flow_value, 1e-9 * scale);
  }
  // One pool entry per distinct pattern.
  EXPECT_EQ(warm_opt.reuse_pool->size(), 2u);
  EXPECT_GT(warm_opt.reuse_pool->stats().hits, 0);
}

TEST(WarmStart, BatchEngineDeterministicModeIsThreadCountInvariant) {
  // Deterministic mode forces sequential in-order execution, so the warm
  // adapters must be bit-identical regardless of the requested thread
  // count — the acceptance contract of the warm-start layer.
  const auto instances = core::load_batch("grid:side=5,seed=11,vary=6");

  core::BatchOptions a;
  a.solver = "analog_dc_warm";
  a.deterministic = true;
  a.num_threads = 1;
  core::BatchOptions b = a;
  b.num_threads = 8;

  const auto ra = core::BatchEngine(a).run(instances);
  const auto rb = core::BatchEngine(b).run(instances);
  ASSERT_EQ(ra.failed, 0);
  ASSERT_EQ(rb.failed, 0);
  EXPECT_EQ(ra.threads_used, 1);
  EXPECT_EQ(rb.threads_used, 1);
  for (size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(ra.outcomes[i].result.flow_value,
              rb.outcomes[i].result.flow_value)
        << "instance " << i;
    ASSERT_EQ(ra.outcomes[i].result.edge_flow.size(),
              rb.outcomes[i].result.edge_flow.size());
    for (size_t e = 0; e < ra.outcomes[i].result.edge_flow.size(); ++e)
      EXPECT_EQ(ra.outcomes[i].result.edge_flow[e],
                rb.outcomes[i].result.edge_flow[e]);
  }
  // The aggregated telemetry shows the pool at work.
  EXPECT_GE(ra.warm_started_instances,
            static_cast<int>(instances.size()) - 1);
  EXPECT_EQ(ra.metrics.warm_iterations + ra.metrics.cold_iterations,
            ra.metrics.iterations);
}

TEST(TransientIncrementalRhs, BitIdenticalToFullAssemblyAndReconciles) {
  // A/B the incremental-RHS tape replay against assemble-every-solve on a
  // dynamic circuit (lag fidelity + parasitics): waveforms must be
  // bit-identical — the replay is the same arithmetic in the same order.
  const auto instances = core::load_batch("grid:side=4,seed=5,vary=2");
  analog::AnalogSolveOptions opt;
  opt.config.fidelity = analog::NegResFidelity::kLag;
  opt.config.stability_margin = 0.05;
  opt.config.parasitic_capacitance = 20e-15;
  opt.config.vflow = 10.0;
  opt.config.dedicated_level_sources = true;
  opt.method = analog::SolveMethod::kTransient;

  const analog::MaxFlowCircuit c =
      analog::AnalogMaxFlowSolver(opt).map(instances[1]);

  auto run_with = [&](bool incremental) {
    sim::TransientOptions topt;
    topt.dt_initial = 1e-12;
    topt.dt_max = 1e-8;
    topt.t_stop = 2e-8;
    topt.incremental_rhs = incremental;
    sim::TransientSolver solver(c.netlist, topt);
    circuit::DeviceState state = circuit::DeviceState::initial(c.netlist);
    std::vector<sim::Probe> probes{
        sim::Probe::source_current(c.vflow_source, "Iflow")};
    const sim::Waveform wf = solver.run(state, probes);
    return std::make_pair(wf, solver.stats());
  };

  const auto [wf_full, st_full] = run_with(false);
  const auto [wf_incr, st_incr] = run_with(true);

  ASSERT_EQ(wf_full.time.size(), wf_incr.time.size());
  for (size_t k = 0; k < wf_full.time.size(); ++k) {
    EXPECT_EQ(wf_full.time[k], wf_incr.time[k]);
    EXPECT_EQ(wf_full.samples[k][0], wf_incr.samples[k][0]) << "step " << k;
  }

  // Counter reconciliation: every solve is either a full assemble or an
  // RHS-only refresh, and the incremental path actually engages.
  EXPECT_EQ(st_incr.full_assembles + st_incr.rhs_refreshes, st_incr.solves);
  EXPECT_GT(st_incr.rhs_refreshes, 0);
  EXPECT_EQ(st_full.rhs_refreshes, 0);
  EXPECT_EQ(st_full.full_assembles, st_full.solves);
  // Identical integration path: same solve count either way.
  EXPECT_EQ(st_full.solves, st_incr.solves);
  EXPECT_EQ(st_full.steps, st_incr.steps);
}

TEST(WarmStart, WarmAdaptersAreRegistered) {
  auto& reg = core::SolverRegistry::instance();
  ASSERT_TRUE(reg.contains("analog_dc_warm"));
  ASSERT_TRUE(reg.contains("analog_transient_warm"));
  const auto g = graph::paper_example_fig5();
  EXPECT_NEAR(core::solve("analog_dc_warm", g).flow_value, 2.0, 0.15);
}
