// Cross-instance warm-start gates (core::ReusePool), on the paper's
// reconfiguration scenario: one crossbar topology, reprogrammed capacities.
//
// Gate A — DC reconfiguration batch, warm vs cold: both paths run the
// pattern-stable refactor fast path with a shared ordering cache; the warm
// path additionally consults a ReusePool (factored LU prototypes + carried
// Newton/device state, homotopy skipped at full drive). Asserts
//   (a) per-instance flows agree to 1e-9,
//   (b) the pool engages (>= count-1 warm starts, prototype refactors, at
//       most one full factorisation),
//   (c) wall-clock speedup >= --min-speedup (default 1.3x).
//
// Gate B — transient path, reuse vs legacy: the factorisation-reuse +
// incremental-RHS transient engine against the rebuild-per-event baseline
// (the transient counterpart of bench_lu_reuse's DC gate). Asserts flow
// identity, RHS-refresh engagement, and speedup >= --min-transient-speedup
// (default 1.5x).
//
//   bench_warm_start [--batch SPEC] [--transient-batch SPEC] [--reps 3]
//                    [--min-speedup 1.3] [--min-transient-speedup 1.5]
//                    [--smoke] [--json FILE]
//
// --smoke shrinks the workloads and drops the wall-clock gates (CI machines
// are too noisy for timing assertions) while keeping every correctness and
// engagement assertion.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analog/solver.hpp"
#include "bench_util.hpp"
#include "core/workload.hpp"
#include "util/json.hpp"

using namespace aflow;

namespace {

struct PathTotals {
  double flow = 0.0;
  std::vector<double> flows;
  long long dc_iterations = 0;
  long long full_factors = 0;
  long long refactors = 0;
  long long prototype_refactors = 0;
  long long rhs_refreshes = 0;
  long long solves = 0;
  int warm_started = 0;
};

analog::AnalogSolveOptions dc_options(bool warm) {
  analog::AnalogSolveOptions opt;
  opt.config.fidelity = analog::NegResFidelity::kIdeal;
  opt.config.parasitic_capacitance = 0.0;
  opt.config.vflow = 10.0;
  opt.config.dedicated_level_sources = true; // pattern = f(topology) only
  opt.method = analog::SolveMethod::kSteadyState;
  opt.ordering_cache = std::make_shared<la::OrderingCache>();
  if (warm) opt.reuse_pool = std::make_shared<core::ReusePool>();
  return opt;
}

analog::AnalogSolveOptions transient_options(bool reuse) {
  analog::AnalogSolveOptions opt;
  // kLag with a small stability margin: dynamics rich enough to integrate,
  // stable enough to settle on reconfiguration workloads (the idealised
  // negative resistors diverge under capacitive load on larger graphs).
  opt.config.fidelity = analog::NegResFidelity::kLag;
  opt.config.stability_margin = 0.05;
  opt.config.parasitic_capacitance = 20e-15;
  opt.config.vflow = 10.0;
  opt.config.dedicated_level_sources = true;
  opt.method = analog::SolveMethod::kTransient;
  opt.reuse_factorization = reuse;
  if (reuse) {
    opt.ordering_cache = std::make_shared<la::OrderingCache>();
    opt.reuse_pool = std::make_shared<core::ReusePool>();
  }
  return opt;
}

/// One pass over the batch through one solver (fresh pools per call, as a
/// batch worker would see them).
PathTotals run_path(const std::vector<graph::FlowNetwork>& instances,
                    const analog::AnalogSolveOptions& options) {
  const analog::AnalogMaxFlowSolver solver(options);
  PathTotals t;
  for (const auto& net : instances) {
    const analog::AnalogFlowResult r = solver.solve(net);
    t.flow += r.flow_value;
    t.flows.push_back(r.flow_value);
    t.dc_iterations += r.dc_iterations;
    t.full_factors += r.full_factors;
    t.refactors += r.refactors;
    t.prototype_refactors += r.prototype_refactors;
    t.rhs_refreshes += r.rhs_refreshes;
    t.solves += r.iterations;
    if (r.warm_started) t.warm_started++;
  }
  return t;
}

bool flows_agree(const PathTotals& a, const PathTotals& b, const char* what) {
  for (size_t i = 0; i < a.flows.size(); ++i) {
    const double scale = std::max(1.0, std::abs(a.flows[i]));
    if (std::abs(a.flows[i] - b.flows[i]) > 1e-9 * scale) {
      std::fprintf(stderr,
                   "FAIL(%s): instance %zu flow differs (%.17g vs %.17g)\n",
                   what, i, a.flows[i], b.flows[i]);
      return false;
    }
  }
  return true;
}

struct GateResult {
  std::string name;
  double speedup = 0.0;
  double threshold = 0.0;
  double base_ms = 0.0;
  double fast_ms = 0.0;
  bool timed = false;
};

} // namespace

int main(int argc, char** argv) {
  const util::Flag flags[] = {
      {"--smoke"}, {"--reps", "N"}, {"--min-speedup", "X"},
      {"--min-transient-speedup", "X"}, {"--batch", "SPEC"},
      {"--transient-batch", "SPEC"}, {"--json", "FILE"}};
  const util::Args args = util::parse_argv(argv[0], flags, argc, argv);
  const bool smoke = args.has("--smoke");
  const int reps = args.number("--reps", smoke ? 1 : 3);
  const double min_speedup = args.number("--min-speedup", smoke ? 0.0 : 1.3);
  const double min_tr_speedup =
      args.number("--min-transient-speedup", smoke ? 0.0 : 1.5);
  const std::string dc_spec =
      args.string("--batch", smoke ? "grid:side=6,seed=5,vary=6"
                                   : "grid:side=13,seed=5,vary=32");
  const std::string tr_spec =
      args.string("--transient-batch", smoke ? "grid:side=4,seed=5,vary=4"
                                             : "grid:side=6,seed=5,vary=6");
  const std::string json_path = args.string("--json", "");

  bench::banner("Cross-instance warm start: reconfiguration batches through "
                "the ReusePool");

  // ---------------------------------------------------------------- gate A
  const auto dc_instances = core::load_batch(dc_spec);
  std::printf("DC reconfiguration batch: %zu instances (spec: %s)\n",
              dc_instances.size(), dc_spec.c_str());

  const auto cold_opt = dc_options(/*warm=*/false);
  const auto warm_opt = dc_options(/*warm=*/true);
  const PathTotals cold = run_path(dc_instances, cold_opt);
  const PathTotals warm = run_path(dc_instances, warm_opt);

  if (!flows_agree(cold, warm, "dc")) return 1;
  const int n = static_cast<int>(dc_instances.size());
  if (warm.warm_started < n - 1) {
    std::fprintf(stderr,
                 "FAIL: warm start engaged on %d/%d instances (want >= %d)\n",
                 warm.warm_started, n, n - 1);
    return 1;
  }
  if (warm.prototype_refactors < n - 1) {
    std::fprintf(stderr,
                 "FAIL: only %lld prototype refactors (want >= %d)\n",
                 warm.prototype_refactors, n - 1);
    return 1;
  }
  if (warm.full_factors > 1) {
    std::fprintf(stderr,
                 "FAIL: warm path ran %lld full factorisations (want <= 1)\n",
                 warm.full_factors);
    return 1;
  }
  std::printf("flow identity cold vs warm: OK (total %.10g)\n", warm.flow);
  std::printf("cold: %lld DC iterations, %lld full factorisations\n",
              cold.dc_iterations, cold.full_factors);
  std::printf("warm: %lld DC iterations, %lld full factorisations, "
              "%lld prototype refactors, %d/%d warm-started\n\n",
              warm.dc_iterations, warm.full_factors,
              warm.prototype_refactors, warm.warm_started, n);

  // ---------------------------------------------------------------- gate B
  const auto tr_instances = core::load_batch(tr_spec);
  std::printf("transient batch: %zu instances (spec: %s)\n",
              tr_instances.size(), tr_spec.c_str());

  const auto tr_base_opt = transient_options(/*reuse=*/false);
  const auto tr_fast_opt = transient_options(/*reuse=*/true);
  const PathTotals tr_base = run_path(tr_instances, tr_base_opt);
  const PathTotals tr_fast = run_path(tr_instances, tr_fast_opt);

  if (!flows_agree(tr_base, tr_fast, "transient")) return 1;
  if (tr_fast.rhs_refreshes == 0) {
    std::fprintf(stderr, "FAIL: transient incremental RHS never engaged\n");
    return 1;
  }
  if (tr_fast.refactors == 0) {
    std::fprintf(stderr, "FAIL: transient refactor fast path never engaged\n");
    return 1;
  }
  std::printf("flow identity legacy vs reuse: OK (total %.10g)\n",
              tr_fast.flow);
  std::printf("legacy: %lld solves, %lld full factorisations\n",
              tr_base.solves, tr_base.full_factors);
  std::printf("reuse:  %lld solves, %lld full factorisations, %lld "
              "refactors, %lld RHS-only refreshes\n\n",
              tr_fast.solves, tr_fast.full_factors, tr_fast.refactors,
              tr_fast.rhs_refreshes);

  // ------------------------------------------------------------- wall clock
  std::vector<GateResult> gates;
  gates.push_back({"dc_warm_vs_cold", 0.0, min_speedup, 0.0, 0.0, false});
  gates.push_back(
      {"transient_reuse_vs_legacy", 0.0, min_tr_speedup, 0.0, 0.0, false});

  if (!smoke) {
    {
      const double t_cold = bench::time_median(
          [&] { run_path(dc_instances, dc_options(false)); }, reps);
      const double t_warm = bench::time_median(
          [&] { run_path(dc_instances, dc_options(true)); }, reps);
      gates[0].base_ms = t_cold * 1e3;
      gates[0].fast_ms = t_warm * 1e3;
      gates[0].speedup = t_warm > 0.0 ? t_cold / t_warm : 0.0;
      gates[0].timed = true;
    }
    {
      const double t_base = bench::time_median(
          [&] { run_path(tr_instances, transient_options(false)); }, reps);
      const double t_fast = bench::time_median(
          [&] { run_path(tr_instances, transient_options(true)); }, reps);
      gates[1].base_ms = t_base * 1e3;
      gates[1].fast_ms = t_fast * 1e3;
      gates[1].speedup = t_fast > 0.0 ? t_base / t_fast : 0.0;
      gates[1].timed = true;
    }

    bench::rule();
    std::printf("%-32s %12s %12s %9s %7s\n", "gate", "base [ms]", "fast [ms]",
                "speedup", "gate");
    bench::rule();
    for (const GateResult& g : gates)
      std::printf("%-32s %12.2f %12.2f %8.2fx %6.2fx\n", g.name.c_str(),
                  g.base_ms, g.fast_ms, g.speedup, g.threshold);
    bench::rule();
  }

  if (!json_path.empty()) {
    util::JsonWriter j;
    j.begin_object();
    j.field("schema", "aflow-bench-v1");
    j.field("bench", "warm_start");
    j.field("smoke", smoke);
    j.key("dc").begin_object();
    j.field("batch", dc_spec);
    j.field("instances", dc_instances.size());
    // Totals of the cold- vs warm-configured runs — deliberately NOT named
    // warm_iterations/cold_iterations, which in aflow_cli's metrics block
    // mean the DcStats per-solve attribution split.
    j.field("iterations_cold_run", cold.dc_iterations);
    j.field("iterations_warm_run", warm.dc_iterations);
    j.field("warm_started_instances", warm.warm_started);
    j.field("warm_full_factors", warm.full_factors);
    j.field("prototype_refactors", warm.prototype_refactors);
    j.field("wall_ms_cold", gates[0].base_ms);
    j.field("wall_ms_warm", gates[0].fast_ms);
    j.end_object();
    j.key("transient").begin_object();
    j.field("batch", tr_spec);
    j.field("instances", tr_instances.size());
    j.field("solves", tr_fast.solves);
    j.field("refactors", tr_fast.refactors);
    j.field("rhs_refreshes", tr_fast.rhs_refreshes);
    j.field("wall_ms_legacy", gates[1].base_ms);
    j.field("wall_ms_reuse", gates[1].fast_ms);
    j.end_object();
    j.key("gates").begin_array();
    for (const GateResult& g : gates)
      bench::json_gate(j, g.name, g.timed, g.speedup, g.threshold);
    j.end_array();
    j.end_object();
    util::write_json_file(json_path, j.str());
    std::printf("json: %s\n", json_path.c_str());
  }

  bool ok = true;
  for (const GateResult& g : gates) {
    if (g.timed && g.threshold > 0.0 && g.speedup < g.threshold) {
      std::fprintf(stderr, "FAIL: %s speedup %.2fx below gate %.2fx\n",
                   g.name.c_str(), g.speedup, g.threshold);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
