// Fig. 5: the worked example — solve the 5-edge instance on the substrate
// and print the node-voltage waveform of the Vflow step response (Fig. 5c)
// plus the steady-state solution (Sec. 2.4).
#include "analog/solver.hpp"
#include "bench_util.hpp"
#include "core/registry.hpp"
#include "flow/maxflow.hpp"
#include "graph/network.hpp"

int main(int argc, char** argv) {
  using namespace aflow;
  const util::Flag flags[] = {{"--vflow", "V"}};
  const util::Args args = util::parse_argv(argv[0], flags, argc, argv);
  bench::banner("Fig. 5 — solving the example instance; waveform of V(x1..x5)");

  const auto g = graph::paper_example_fig5();
  const double exact = core::solve("push_relabel", g).flow_value;

  analog::AnalogSolveOptions opt;
  opt.config.fidelity = analog::NegResFidelity::kOpAmpNic;
  opt.config.parasitics_on_internal_nodes = true;
  opt.config.nic_anti_latch = false;
  opt.config.vflow = args.number("--vflow", 10.0);
  opt.config.vdd = 3.0; // 1 V per capacity unit, as in the paper's figure
  opt.quantization = analog::QuantizationMode::kNone;
  opt.method = analog::SolveMethod::kTransient;
  opt.record_edge_waveforms = true;

  const auto r = analog::AnalogMaxFlowSolver(opt).solve(g);

  std::printf("\nwaveform (time s, V(x1)..V(x5); paper plots 0..25 ns):\n");
  std::printf("%12s %8s %8s %8s %8s %8s\n", "t", "V(x1)", "V(x2)", "V(x3)",
              "V(x4)", "V(x5)");
  const size_t stride = std::max<size_t>(1, r.waveform.time.size() / 28);
  for (size_t k = 0; k < r.waveform.time.size(); k += stride) {
    std::printf("%12.3e %8.3f %8.3f %8.3f %8.3f %8.3f\n", r.waveform.time[k],
                r.waveform.samples[k][1], r.waveform.samples[k][2],
                r.waveform.samples[k][3], r.waveform.samples[k][4],
                r.waveform.samples[k][5]);
  }
  std::printf("\nsteady state: flow = %.3f (exact %.0f), per-edge:", r.flow_value,
              exact);
  for (double f : r.edge_flow) std::printf(" %.3f", f);
  std::printf("\npaper (Sec. 2.4): Vx1 -> 2 V, x3/x4 saturate at 1 V "
              "(one of several degenerate optimal splits; see EXPERIMENTS.md "
              "\"Degenerate optimal splits\")\n");

  // The steady-state (theory) solution for comparison.
  analog::AnalogSolveOptions dc = opt;
  dc.config.fidelity = analog::NegResFidelity::kIdeal;
  dc.method = analog::SolveMethod::kSteadyState;
  const auto rdc = analog::AnalogMaxFlowSolver(dc).solve(g);
  std::printf("ideal-substrate steady state: flow = %.3f, per-edge:",
              rdc.flow_value);
  for (double f : rdc.edge_flow) std::printf(" %.3f", f);
  std::printf("\n");
  return 0;
}
