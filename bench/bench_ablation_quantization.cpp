// Ablation (Sec. 4.1): relative error vs the number of voltage levels N.
// The paper fixes N = 20 and notes the accuracy/cost trade; this sweep
// quantifies it, together with the worst-case bound e = C/N.
#include "analog/solver.hpp"
#include "bench_util.hpp"
#include "core/registry.hpp"
#include "flow/maxflow.hpp"
#include "graph/generators.hpp"

int main(int argc, char** argv) {
  using namespace aflow;
  const util::Flag flags[] = {{"--seeds", "N"}};
  const util::Args args = util::parse_argv(argv[0], flags, argc, argv);
  bench::banner("Ablation — error vs number of quantization levels N (Sec. 4.1)");

  const int seeds = args.number("--seeds", 4);
  std::printf("%6s %14s %14s %14s\n", "N", "avg |err|", "max |err|",
              "bound C/N (rel)");
  bench::rule();
  for (int levels : {4, 8, 16, 20, 32, 64, 128}) {
    double sum = 0.0, worst = 0.0, bound_rel = 0.0;
    for (int seed = 1; seed <= seeds; ++seed) {
      const auto g = graph::rmat(48, 220, {}, seed);
      const double exact = core::solve("push_relabel", g).flow_value;
      analog::AnalogSolveOptions opt;
      opt.config.fidelity = analog::NegResFidelity::kIdeal;
      opt.config.parasitic_capacitance = 0.0;
      opt.config.vflow = 10.0;
      opt.quantization = analog::QuantizationMode::kRound;
      opt.config.voltage_levels = levels;
      const auto r = analog::AnalogMaxFlowSolver(opt).solve(g);
      const double err = r.relative_error(exact);
      sum += err;
      worst = std::max(worst, err);
      bound_rel += g.max_capacity() / levels / exact;
    }
    std::printf("%6d %13.2f%% %13.2f%% %13.2f%%\n", levels,
                100.0 * sum / seeds, 100.0 * worst, 100.0 * bound_rel / seeds);
  }
  bench::rule();
  std::printf("error shrinks ~1/N until the residual circuit error floor; "
              "N = 20 (Table 1) sits near the\npaper's <= 8%% envelope.\n");
  return 0;
}
