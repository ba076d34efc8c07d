// Fig. 10: convergence time and relative error on R-MAT graphs, dense
// (|E| ~ |V|^2, Fig. 10a) and sparse (|E| ~ |V|, Fig. 10b) regimes, for
// op-amp GBW 10 GHz and 50 GHz, against the push-relabel CPU baseline.
//
// Methodology (see EXPERIMENTS.md "Convergence-time methodology"):
//  - relative error: ideal-substrate steady state (the paper's Sec. 2
//    theory) with Table-1 quantization, solved by ramped-homotopy DC;
//  - convergence time: settling time of the dynamic realisation (explicit
//    unrailed Fig. 9a NICs, 20 fF parasitics) measured on the J(t) waveform
//    with the paper's 0.1% band, on instances whose transients stay bounded;
//  - CPU time: in-repo push-relabel, -O3, instance in memory (paper
//    protocol), median of 5 runs.
#include <exception>

#include "analog/solver.hpp"
#include "bench_util.hpp"
#include "core/registry.hpp"
#include "flow/maxflow.hpp"
#include "graph/generators.hpp"

using namespace aflow;

namespace {

struct Row {
  int vertices = 0;
  int edges = 0;
  double exact = 0.0;
  double cpu_seconds = 0.0;
  double tconv_10g = 0.0;
  double tconv_50g = 0.0;
  double rel_error = 0.0;
  bool dynamic_failed = false;
  bool dynamic_skipped = false;
  bool dc_failed = false;
};

double measure_tconv(const graph::FlowNetwork& g, double gbw, double vflow) {
  analog::AnalogSolveOptions opt;
  opt.config.fidelity = analog::NegResFidelity::kOpAmpNic;
  opt.config.parasitics_on_internal_nodes = true;
  opt.config.nic_anti_latch = false;
  opt.config.opamp_gbw = gbw;
  opt.config.vflow = vflow;
  opt.quantization = analog::QuantizationMode::kRound;
  opt.method = analog::SolveMethod::kTransient;
  opt.t_stop = 4e-5; // bound the integration effort per instance
  return analog::AnalogMaxFlowSolver(opt).solve(g).convergence_time;
}

Row run_instance(const graph::FlowNetwork& g, double vflow,
                 bool measure_dynamics) {
  Row row;
  row.vertices = g.num_vertices();
  row.edges = g.num_edges();

  const auto solver = core::SolverRegistry::instance().create("push_relabel");
  const auto pr = solver->solve(g);
  row.exact = pr.flow_value;
  row.cpu_seconds = bench::time_median([&] { solver->solve(g); });

  analog::AnalogSolveOptions dc;
  dc.config.fidelity = analog::NegResFidelity::kIdeal;
  dc.config.parasitic_capacitance = 0.0;
  dc.config.vflow = vflow;
  dc.quantization = analog::QuantizationMode::kRound;
  try {
    const auto r = analog::AnalogMaxFlowSolver(dc).solve(g);
    row.rel_error = r.relative_error(row.exact);
  } catch (const std::exception&) {
    row.dc_failed = true;
  }

  if (measure_dynamics) {
    try {
      row.tconv_10g = measure_tconv(g, 10e9, vflow);
      row.tconv_50g = measure_tconv(g, 50e9, vflow);
    } catch (const std::exception&) {
      row.dynamic_failed = true;
    }
  } else {
    row.dynamic_skipped = true;
  }
  return row;
}

void print_regime(const char* title, bool dense, const std::vector<int>& sizes,
                  double vflow, std::uint64_t seed, int dyn_max) {
  bench::banner(title);
  std::printf("%6s %7s %12s %12s %12s %10s %10s %9s\n", "|V|", "|E|",
              "t_conv@10G", "t_conv@50G", "push-relabel", "speedup10",
              "speedup50", "rel.err");
  bench::rule();
  double err_sum = 0.0;
  int err_count = 0;
  for (int n : sizes) {
    const auto g = dense ? graph::rmat_dense(n, seed) : graph::rmat_sparse(n, seed);
    const Row row = run_instance(g, vflow, n <= dyn_max);
    std::printf("%6d %7d ", row.vertices, row.edges);
    if (row.dynamic_skipped) std::printf("%12s %12s ", "-", "-");
    else if (row.dynamic_failed)
      std::printf("%12s %12s ", "(diverged)", "(diverged)");
    else std::printf("%12.3e %12.3e ", row.tconv_10g, row.tconv_50g);
    std::printf("%12.3e ", row.cpu_seconds);
    if (row.dynamic_failed || row.dynamic_skipped)
      std::printf("%10s %10s ", "-", "-");
    else std::printf("%10.0f %10.0f ", row.cpu_seconds / row.tconv_10g,
                     row.cpu_seconds / row.tconv_50g);
    if (row.dc_failed) std::printf("%9s\n", "-");
    else {
      std::printf("%8.2f%%\n", 100.0 * row.rel_error);
      err_sum += row.rel_error;
      err_count++;
    }
  }
  bench::rule();
  if (err_count > 0)
    std::printf("average relative error: %.2f%%  (paper: 3.7%% dense / 5.4%% "
                "sparse, all <= 8%%)\n\n",
                100.0 * err_sum / err_count);
}

} // namespace

int main(int argc, char** argv) {
  const util::Flag flags[] = {
      {"--paper"}, {"--vflow", "V"}, {"--seed", "S"}, {"--dyn-max", "N"}};
  const util::Args args = util::parse_argv(argv[0], flags, argc, argv);
  // Paper range: 256..960. Default here is a reduced sweep that finishes in
  // minutes on a laptop; --paper runs the full range.
  std::vector<int> sizes = {256, 448, 640};
  if (args.has("--paper"))
    sizes = {256, 320, 384, 448, 512, 576, 640, 704, 768, 832, 896, 960};
  const double vflow = args.number("--vflow", 10.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.number("--seed", 7));
  // The unrailed dynamic model is only integrated where its start-up
  // transient stays bounded (see EXPERIMENTS.md
  // "Marginal stability on generated workloads").
  const int dyn_max = args.number("--dyn-max", 256);

  print_regime("Fig. 10a — dense graphs (|E| ~ |V|^2), R-MAT", true, sizes,
               vflow, seed, dyn_max);
  print_regime("Fig. 10b — sparse graphs (|E| ~ |V|), R-MAT", false, sizes,
               vflow, seed, dyn_max);

  // Dynamic settling on instances whose start-up transients stay bounded
  // (the marginal widgets make R-MAT instances diverge; see EXPERIMENTS.md
  // "Marginal stability on generated workloads").
  bench::banner("dynamic settling times (bounded instances, unrailed NIC model)");
  std::printf("%22s %6s %6s %12s %12s %12s %10s\n", "instance", "|V|", "|E|",
              "t_conv@10G", "t_conv@50G", "push-relabel", "speedup10");
  bench::rule();
  std::vector<std::pair<std::string, graph::FlowNetwork>> dyn;
  dyn.emplace_back("fig5", graph::paper_example_fig5());
  for (int layers : {2, 4, 8, 12})
    dyn.emplace_back("layered-" + std::to_string(layers),
                     graph::layered_random(layers, 2, 2, 8, 5));
  for (auto& [name, g] : dyn) {
    const auto solver = core::SolverRegistry::instance().create("push_relabel");
    const double cpu = bench::time_median([&, &g = g] { solver->solve(g); });
    try {
      const double t10 = measure_tconv(g, 10e9, vflow);
      const double t50 = measure_tconv(g, 50e9, vflow);
      std::printf("%22s %6d %6d %12.3e %12.3e %12.3e %10.0f\n", name.c_str(),
                  g.num_vertices(), g.num_edges(), t10, t50, cpu, cpu / t10);
    } catch (const std::exception&) {
      std::printf("%22s %6d %6d %12s %12s %12.3e %10s\n", name.c_str(),
                  g.num_vertices(), g.num_edges(), "(diverged)", "(diverged)",
                  cpu, "-");
    }
  }
  bench::rule();
  std::printf("notes: convergence time is the settling time of the dynamic "
              "model (J(t) within 0.1%%\nof final); relative error "
              "comes from the ideal-substrate steady state at Vflow=%.0fV. "
              "See\nEXPERIMENTS.md \"Marginal stability on generated workloads\" "
              "and the paper-vs-measured comparison.\n",
              vflow);
  return 0;
}
