// Factorisation-reuse gate: solves a Newton-heavy batch of analog DC
// instances twice — once with the legacy rebuild-everything-per-iteration
// baseline and once with the pattern-stable assembly + numeric-refactor
// fast path (plus cross-instance ordering sharing) — and verifies
//   (a) the two paths agree on every flow value to 1e-9,
//   (b) the fast path actually runs as refactors (>= iterations - solves
//       full factorisations would mean the fast path never engaged), and
//   (c) the measured speedup clears the gate (default 1.5x).
//
//   bench_lu_reuse [--batch SPEC] [--reps 3] [--min-speedup 1.5] [--smoke]
//                  [--json FILE]
//
// --smoke shrinks the workload and drops the timing gate (CI machines are
// too noisy for wall-clock assertions) while keeping the correctness and
// refactor-share assertions. --json writes an aflow-bench-v1 report for
// perf-trend tracking.
#include <algorithm>
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
  long long full_factors = 0;
  long long refactors = 0;
  long long solves = 0;
  std::vector<double> flows;
};

analog::AnalogSolveOptions make_options(bool reuse, bool share) {
  analog::AnalogSolveOptions opt;
  opt.config.fidelity = analog::NegResFidelity::kIdeal;
  opt.config.parasitic_capacitance = 0.0;
  opt.config.vflow = 10.0;
  opt.method = analog::SolveMethod::kSteadyState;
  opt.reuse_factorization = reuse;
  if (share) opt.ordering_cache = std::make_shared<la::OrderingCache>();
  return opt;
}

PathTotals run_path(const std::vector<graph::FlowNetwork>& instances,
                    const analog::AnalogSolveOptions& options) {
  const analog::AnalogMaxFlowSolver solver(options);
  PathTotals t;
  for (const auto& net : instances) {
    const analog::AnalogFlowResult r = solver.solve(net);
    t.flow += r.flow_value;
    t.full_factors += r.full_factors;
    t.refactors += r.refactors;
    t.solves += r.iterations;
    t.flows.push_back(r.flow_value);
  }
  return t;
}

} // namespace

int main(int argc, char** argv) {
  const util::Flag flags[] = {
      {"--smoke"}, {"--reps", "N"}, {"--min-speedup", "X"},
      {"--batch", "SPEC"}, {"--json", "FILE"}};
  const util::Args args = util::parse_argv(argv[0], flags, argc, argv);
  const bool smoke = args.has("--smoke");
  const int reps = args.number("--reps", smoke ? 1 : 3);
  const double min_speedup = args.number("--min-speedup", smoke ? 0.0 : 1.5);
  // Dense-ish ~1k-node circuits whose clamp ladders make the DC solve
  // Newton/PWL-heavy; 64 instances as in the acceptance criterion.
  const std::string spec =
      args.string("--batch", smoke ? "grid:side=6,count=4,seed=5"
                                   : "grid:side=13,count=64,seed=5");

  bench::banner("LU factorisation reuse: rebuild-per-iteration baseline vs "
                "refactor fast path");
  const auto instances = core::load_batch(spec);
  std::printf("instances: %zu  (spec: %s)\n\n", instances.size(), spec.c_str());

  const auto baseline_opt = make_options(/*reuse=*/false, /*share=*/false);
  const auto reuse_opt = make_options(/*reuse=*/true, /*share=*/true);

  const PathTotals base = run_path(instances, baseline_opt);
  const PathTotals fast = run_path(instances, reuse_opt);

  // (a) Identical answers.
  for (size_t i = 0; i < instances.size(); ++i) {
    if (std::abs(base.flows[i] - fast.flows[i]) > 1e-9) {
      std::fprintf(stderr,
                   "FAIL: instance %zu flow differs between paths "
                   "(%.17g baseline vs %.17g reuse)\n",
                   i, base.flows[i], fast.flows[i]);
      return 1;
    }
  }

  // (b) The fast path must spend almost all factorisations as refactors:
  // one full factorisation per instance pattern is expected, everything
  // else should ride the numeric-only path.
  if (fast.refactors < fast.solves - fast.full_factors - 1) {
    std::fprintf(stderr,
                 "FAIL: refactor fast path not engaged (solves=%lld "
                 "full=%lld refactors=%lld)\n",
                 fast.solves, fast.full_factors, fast.refactors);
    return 1;
  }
  if (fast.refactors == 0) {
    std::fprintf(stderr, "FAIL: reuse path performed zero refactors\n");
    return 1;
  }
  if (base.refactors != 0) {
    std::fprintf(stderr, "FAIL: baseline unexpectedly refactored (%lld)\n",
                 base.refactors);
    return 1;
  }

  std::printf("flow identity across paths: OK (total flow %.10g)\n",
              fast.flow);
  std::printf("baseline: %lld linear solves, %lld full factorisations\n",
              base.solves, base.full_factors);
  std::printf("reuse:    %lld linear solves, %lld full factorisations, "
              "%lld refactors (%.1f%% fast path)\n\n",
              fast.solves, fast.full_factors, fast.refactors,
              100.0 * static_cast<double>(fast.refactors) /
                  static_cast<double>(fast.full_factors + fast.refactors));

  const double t_base =
      bench::time_median([&] { run_path(instances, baseline_opt); }, reps);
  const double t_fast =
      bench::time_median([&] { run_path(instances, reuse_opt); }, reps);
  const double speedup = t_fast > 0.0 ? t_base / t_fast : 0.0;

  bench::rule();
  std::printf("%-36s %12s\n", "path", "wall [ms]");
  bench::rule();
  std::printf("%-36s %12.2f\n", "rebuild per iteration (baseline)",
              t_base * 1e3);
  std::printf("%-36s %12.2f\n", "pattern + refactor reuse", t_fast * 1e3);
  bench::rule();
  std::printf("speedup: %.2fx  (gate: %.2fx)\n", speedup, min_speedup);

  const std::string json_path = args.string("--json", "");
  if (!json_path.empty()) {
    aflow::util::JsonWriter j;
    j.begin_object();
    j.field("schema", "aflow-bench-v1");
    j.field("bench", "lu_reuse");
    j.field("smoke", smoke);
    j.field("batch", spec);
    j.field("instances", instances.size());
    j.field("solves", fast.solves);
    j.field("full_factors", fast.full_factors);
    j.field("refactors", fast.refactors);
    j.field("refactor_share",
            static_cast<double>(fast.refactors) /
                static_cast<double>(
                    std::max(1LL, fast.full_factors + fast.refactors)));
    j.field("wall_ms_baseline", t_base * 1e3);
    j.field("wall_ms_reuse", t_fast * 1e3);
    j.key("gates").begin_array();
    bench::json_gate(j, "dc_reuse_vs_rebuild", /*timed=*/min_speedup > 0.0,
                     speedup, min_speedup);
    j.end_array();
    j.end_object();
    aflow::util::write_json_file(json_path, j.str());
    std::printf("json: %s\n", json_path.c_str());
  }

  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below gate %.2fx\n", speedup,
                 min_speedup);
    return 1;
  }
  return 0;
}
