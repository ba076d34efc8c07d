// Batch-engine scaling bench (acceptance gate of the engine PR): 64 generated
// instances (grid + random, ~1k nodes each) solved by the BatchEngine in
// 1-thread and N-thread mode. Reports wall-clock speedup and verifies the
// flow values are identical across thread counts.
//
//   bench_batch_engine [--solver dinic] [--threads 8] [--reps 3]
//                      [--batch SPEC] [--min-speedup X]
//
// --min-speedup X fails the run (exit 1) when the N-thread speedup over the
// single-thread baseline is below X — the acceptance gate for scaling
// regressions. Default 0 (report only), because shared CI runners are too
// noisy for a hard wall-clock gate.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "core/batch_engine.hpp"
#include "core/workload.hpp"

using namespace aflow;

int main(int argc, char** argv) {
  const util::Flag flags[] = {
      {"--solver", "NAME"}, {"--threads", "N"}, {"--reps", "N"},
      {"--min-speedup", "X"}, {"--batch", "SPEC"}};
  const util::Args args = util::parse_argv(argv[0], flags, argc, argv);
  const std::string solver = args.string("--solver", "dinic");
  const int threads = args.number("--threads", 8);
  const int reps = args.number("--reps", 3);
  const double min_speedup = args.number("--min-speedup", 0.0);
  // 31x31 grid-cut graphs have 963 vertices; the random instances are sized
  // to match (~1k nodes each), 64 instances total.
  const std::string spec = args.string(
      "--batch",
      "grid:side=31,count=32,seed=1;uniform:n=1000,m=8000,cap=64,count=32,seed=101");

  bench::banner("BatchEngine scaling: 1 thread vs " + std::to_string(threads) +
                " threads, solver=" + solver);
  const auto instances = core::load_batch(spec);
  std::printf("instances: %zu  (spec: %s)\n\n", instances.size(), spec.c_str());

  core::BatchOptions single;
  single.solver = solver;
  single.deterministic = true;
  core::BatchOptions multi;
  multi.solver = solver;
  multi.num_threads = threads;

  const core::BatchEngine engine1(single);
  const core::BatchEngine engineN(multi);

  // Reference results once, for the cross-thread-count identity check.
  const auto r1 = engine1.run(instances);
  const auto rn = engineN.run(instances);
  if (r1.failed != 0 || rn.failed != 0) {
    std::fprintf(stderr, "FAIL: %d/%d instances failed\n", r1.failed,
                 rn.failed);
    return 1;
  }
  for (size_t i = 0; i < instances.size(); ++i) {
    const double f1 = r1.outcomes[i].result.flow_value;
    const double fn = rn.outcomes[i].result.flow_value;
    if (f1 != fn) {
      std::fprintf(stderr,
                   "FAIL: instance %zu flow differs across thread counts "
                   "(%.17g vs %.17g)\n",
                   i, f1, fn);
      return 1;
    }
  }
  std::printf("flow identity across thread counts: OK (total flow %.10g)\n\n",
              r1.total_flow);

  const double t1 =
      bench::time_median([&] { engine1.run(instances); }, reps);
  const double tn =
      bench::time_median([&] { engineN.run(instances); }, reps);
  const double speedup = tn > 0.0 ? t1 / tn : 0.0;

  bench::rule();
  std::printf("%-28s %12s %12s\n", "mode", "wall [ms]", "inst/s");
  bench::rule();
  std::printf("%-28s %12.2f %12.1f\n", "1 thread (deterministic)", t1 * 1e3,
              instances.size() / t1);
  std::printf("%-28s %12.2f %12.1f\n",
              (std::to_string(threads) + " threads").c_str(), tn * 1e3,
              instances.size() / tn);
  bench::rule();
  std::printf("speedup: %.2fx", speedup);
  if (min_speedup > 0.0) std::printf("  (gate: %.2fx)", min_speedup);
  std::printf("\n");
  if (min_speedup > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below gate %.2fx\n", speedup,
                 min_speedup);
    return 1;
  }
  return 0;
}
