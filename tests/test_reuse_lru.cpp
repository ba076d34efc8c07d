// Serving-safe ReusePool: byte-budgeted LRU eviction, counter
// reconciliation, and the bit-identity contract of the warm quasi-static
// sweep and min-cut dual paths (their pooled runs must reproduce the cold
// runs bit for bit — see DESIGN.md "Serving architecture").
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "analog/solver.hpp"
#include "core/reuse_pool.hpp"
#include "core/workload.hpp"
#include "graph/generators.hpp"
#include "mincut/dual_circuit.hpp"
#include "sim/sweep.hpp"

namespace analog = aflow::analog;
namespace circuit = aflow::circuit;
namespace core = aflow::core;
namespace graph = aflow::graph;
namespace la = aflow::la;
namespace mincut = aflow::mincut;
namespace sim = aflow::sim;

namespace {

/// An entry whose dominant cost is an `n`-double solution vector.
core::ReuseEntry entry_of_doubles(size_t n) {
  core::ReuseEntry e;
  e.x = std::make_shared<const std::vector<double>>(n, 1.0);
  return e;
}

analog::AnalogSolveOptions reconfig_options() {
  analog::AnalogSolveOptions opt;
  opt.config.fidelity = analog::NegResFidelity::kIdeal;
  opt.config.parasitic_capacitance = 0.0;
  opt.config.vflow = 10.0;
  opt.config.dedicated_level_sources = true;
  return opt;
}

} // namespace

TEST(ReusePoolLru, EvictsLeastRecentlyUsedUnderByteBudget) {
  const size_t per_entry = entry_of_doubles(1000).memory_bytes();
  // Room for two entries, not three.
  core::ReusePool pool(2 * per_entry + per_entry / 2);

  EXPECT_EQ(pool.store(1, entry_of_doubles(1000)), 0);
  EXPECT_EQ(pool.store(2, entry_of_doubles(1000)), 0);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.bytes(), 2 * per_entry);

  // Touch 1 so that 2 becomes the least recently used, then overflow.
  ASSERT_NE(pool.find(1), nullptr);
  EXPECT_EQ(pool.store(3, entry_of_doubles(1000)), 1);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_LE(pool.bytes(), pool.byte_budget());

  EXPECT_NE(pool.find(1), nullptr);
  EXPECT_NE(pool.find(3), nullptr);
  EXPECT_EQ(pool.find(2), nullptr) << "LRU entry must be the one evicted";
  EXPECT_EQ(pool.stats().evictions, 1);
}

TEST(ReusePoolLru, CountersReconcile) {
  core::ReusePool pool(1); // evict on every distinct store
  int lookups = 0, found = 0;
  auto look = [&](std::uint64_t key) {
    ++lookups;
    if (pool.find(key)) ++found;
  };

  look(7);                                     // miss
  pool.store(7, entry_of_doubles(8));          // oversized entry: retained
  look(7);                                     // hit
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_GT(pool.bytes(), pool.byte_budget())
      << "a single oversized entry is retained, not thrashed";

  pool.store(8, entry_of_doubles(8));          // evicts 7
  look(7);                                     // miss
  look(8);                                     // hit

  const core::ReusePool::Stats s = pool.stats();
  EXPECT_EQ(s.hits + s.misses, lookups);
  EXPECT_EQ(s.hits, found);
  EXPECT_EQ(s.stores, 2);
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ReusePoolLru, SameKeyStoreReplacesWithoutEviction) {
  const size_t small = entry_of_doubles(10).memory_bytes();
  core::ReusePool pool(4 * small);
  pool.store(5, entry_of_doubles(10));
  const size_t before = pool.bytes();
  EXPECT_EQ(pool.store(5, entry_of_doubles(10)), 0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.bytes(), before) << "replacement must not leak bytes";
  EXPECT_EQ(pool.stats().evictions, 0);
}

TEST(WarmSweep, BitIdenticalToColdSweepAndSavesIterations) {
  // The serving contract (ISSUE 4): a pooled sweep must reproduce the cold
  // sweep bit for bit — the pool contributes only the pattern-pure column
  // ordering plus a device-state seed, and the solver is primed with the
  // cold path's own first factorisation.
  const auto instances = core::load_batch("grid:side=5,seed=7,vary=3");
  const analog::AnalogMaxFlowSolver mapper(reconfig_options());
  // Start the ramp well inside the nontrivial region so the first point is
  // a real LCP search (that is what the cross-request seed collapses).
  const std::vector<double> values{4.0, 6.0, 8.0, 10.0};

  auto run_sweep = [&](const graph::FlowNetwork& net,
                       std::shared_ptr<core::ReusePool> pool) {
    analog::MaxFlowCircuit c = mapper.map(net);
    sim::QuasiStaticSweep sweep(c.netlist, c.vflow_source, {}, std::move(pool));
    return sweep.run(values,
                     {sim::Probe::source_current(c.vflow_source, "Iflow")});
  };

  auto pool = std::make_shared<core::ReusePool>();
  const sim::SweepResult feed = run_sweep(instances[0], pool);
  EXPECT_FALSE(feed.stats.warm_started);
  EXPECT_EQ(feed.stats.pool_misses, 1);
  EXPECT_EQ(pool->size(), 1u);

  const sim::SweepResult warm = run_sweep(instances[1], pool);
  const sim::SweepResult cold = run_sweep(instances[1], nullptr);

  EXPECT_TRUE(warm.stats.warm_started);
  EXPECT_EQ(warm.stats.pool_hits, 1);
  EXPECT_EQ(warm.stats.warm_iterations + warm.stats.cold_iterations,
            warm.stats.iterations);
  EXPECT_EQ(cold.stats.pool_hits + cold.stats.pool_misses, 0);

  ASSERT_EQ(warm.trajectory.size(), cold.trajectory.size());
  for (size_t k = 0; k < warm.trajectory.size(); ++k) {
    ASSERT_EQ(warm.trajectory[k].size(), cold.trajectory[k].size());
    for (size_t p = 0; p < warm.trajectory[k].size(); ++p)
      EXPECT_EQ(warm.trajectory[k][p], cold.trajectory[k][p])
          << "point " << k << " probe " << p
          << " must be bit-identical to the cold sweep";
  }
  ASSERT_EQ(warm.breakpoints.size(), cold.breakpoints.size());
  for (size_t b = 0; b < warm.breakpoints.size(); ++b) {
    EXPECT_EQ(warm.breakpoints[b].source_value,
              cold.breakpoints[b].source_value);
    EXPECT_EQ(warm.breakpoints[b].flips, cold.breakpoints[b].flips);
  }
  // The pooled seed collapses the first point's LCP search.
  EXPECT_LT(warm.stats.iterations, cold.stats.iterations);
}

TEST(WarmMinCut, BitIdenticalToColdAndSavesIterations) {
  const auto g0 = graph::rmat(24, 80, {}, 3);
  // Reconfigured capacities on the same topology: the dual circuit's
  // pattern depends only on the topology, so this hits the pool entry.
  const auto g1 = core::capacity_variants(g0, 2, 17)[1];

  mincut::DualCircuitOptions cold_opt;
  mincut::DualCircuitOptions warm_opt;
  warm_opt.reuse_pool = std::make_shared<core::ReusePool>();

  const mincut::AnalogMinCutResult feed = mincut::solve_mincut_dual(g0, warm_opt);
  EXPECT_FALSE(feed.warm_started);
  EXPECT_EQ(feed.pool_misses, 1);
  EXPECT_EQ(warm_opt.reuse_pool->size(), 1u);

  const mincut::AnalogMinCutResult warm = mincut::solve_mincut_dual(g1, warm_opt);
  const mincut::AnalogMinCutResult cold = mincut::solve_mincut_dual(g1, cold_opt);

  EXPECT_TRUE(warm.warm_started);
  EXPECT_EQ(warm.pool_hits, 1);
  EXPECT_EQ(warm.warm_iterations + warm.cold_iterations, warm.iterations);

  EXPECT_EQ(warm.cut_value, cold.cut_value);
  EXPECT_EQ(warm.flow_value, cold.flow_value);
  ASSERT_EQ(warm.p_values.size(), cold.p_values.size());
  for (size_t v = 0; v < warm.p_values.size(); ++v) {
    EXPECT_EQ(warm.p_values[v], cold.p_values[v]) << "p " << v;
    EXPECT_EQ(warm.side[v], cold.side[v]) << "side " << v;
  }
  ASSERT_EQ(warm.d_values.size(), cold.d_values.size());
  for (size_t e = 0; e < warm.d_values.size(); ++e) {
    EXPECT_EQ(warm.d_values[e], cold.d_values[e]) << "d " << e;
    EXPECT_EQ(warm.edge_flow[e], cold.edge_flow[e]) << "flow " << e;
  }
  // The pooled seed collapses the complementarity search.
  EXPECT_LT(warm.iterations, cold.iterations);
}
