// Ablation (Sec. 4.3): solution quality vs resistor mismatch, with layout
// matching and memristive tuning. Also demonstrates ratio invariance under
// die-level global scaling and the Fig. 9b tuning procedure itself.
#include "analog/solver.hpp"
#include "analog/tuning.hpp"
#include "analog/variation.hpp"
#include "bench_util.hpp"
#include "core/registry.hpp"
#include "flow/maxflow.hpp"
#include "graph/generators.hpp"

int main(int argc, char** argv) {
  using namespace aflow;
  const util::Flag flags[] = {{"--seeds", "N"}};
  const util::Args args = util::parse_argv(argv[0], flags, argc, argv);
  bench::banner("Ablation — process variation and tuning (Sec. 4.3)");

  const int seeds = args.number("--seeds", 3);

  std::printf("[ratio invariance] die-level global scale, ideal substrate:\n");
  const auto g0 = graph::rmat(40, 170, {}, 5);
  const double exact0 = core::solve("push_relabel", g0).flow_value;
  for (double scale : {0.7, 1.0, 1.5, 2.0}) {
    analog::AnalogSolveOptions opt;
    opt.config.fidelity = analog::NegResFidelity::kIdeal;
    opt.config.parasitic_capacitance = 0.0;
    opt.config.vflow = 20.0;
    analog::VariationModel vm;
    vm.global_scale = scale;
    opt.perturb = analog::make_variation(vm);
    const auto r = analog::AnalogMaxFlowSolver(opt).solve(g0);
    std::printf("  scale %.1f: flow %.3f (err %+.4f%%)\n", scale, r.flow_value,
                100.0 * (r.flow_value - exact0) / exact0);
  }

  std::printf("\n[mismatch] NIC realisation (unrailed dynamics), Vflow = 20 V:\n");
  std::printf("%28s %12s %12s\n", "condition", "avg |err|", "worst |err|");
  bench::rule(' ', 0);
  struct Case { const char* name; double sigma; double tuned; };
  const Case cases[] = {
      {"nominal (no mismatch)", 0.0, -1.0},
      {"untrimmed 5% mismatch", 0.05, -1.0},
      {"layout-matched 1%", 0.01, -1.0},
      {"layout-matched 0.1%", 0.001, -1.0},
      {"memristive-tuned 0.1%", 0.0, 0.001},
  };
  for (const auto& c : cases) {
    double sum = 0.0, worst = 0.0;
    int ok = 0;
    for (int seed = 1; seed <= seeds; ++seed) {
      // Bounded-transient instance; R-MAT mismatch studies diverge (a
      // reproduction finding, see EXPERIMENTS.md
      // "Marginal stability on generated workloads").
      const auto g = graph::paper_example_fig5();
      const double exact = core::solve("push_relabel", g).flow_value;
      analog::AnalogSolveOptions opt;
      opt.config.fidelity = analog::NegResFidelity::kOpAmpNic;
      opt.config.parasitics_on_internal_nodes = true;
      opt.config.nic_anti_latch = false;
      opt.config.vflow = 20.0;
      analog::VariationModel vm;
      vm.mismatch_sigma = c.sigma;
      vm.tuned_tolerance = c.tuned;
      vm.seed = seed * 977;
      opt.perturb = analog::make_variation(vm);
      try {
        const auto r = analog::AnalogMaxFlowSolver(opt).solve(g);
        const double err = r.relative_error(exact);
        sum += err;
        worst = std::max(worst, err);
        ++ok;
      } catch (const std::exception&) {
      }
    }
    if (ok > 0)
      std::printf("%28s %11.2f%% %11.2f%%   (%d/%d solved)\n", c.name,
                  100.0 * sum / ok, 100.0 * worst, ok, seeds);
    else
      std::printf("%28s %12s\n", c.name, "(all diverged)");
  }

  std::printf("\n[Fig. 9b tuning procedure] on mismatched negation widgets:\n");
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    analog::TuningOptions topt;
    topt.variation.mismatch_sigma = 0.05;
    topt.variation.seed = seed;
    const auto rep = analog::tune_negation_widget(topt);
    std::printf("  seed %llu: |Vxm + Vx| %.4f V -> %.6f V in %d rounds (%s)\n",
                static_cast<unsigned long long>(seed), rep.initial_error,
                rep.final_error, rep.rounds,
                rep.converged ? "converged" : "NOT converged");
  }
  return 0;
}
