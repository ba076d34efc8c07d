#include "analog/power.hpp"

#include <vector>

namespace aflow::analog {

int count_active_opamps(const graph::FlowNetwork& net) {
  int amps = 0;
  std::vector<char> touched(net.num_vertices(), 0);
  for (const auto& edge : net.edges()) {
    touched[edge.from] = touched[edge.to] = 1;
    if (edge.from == net.sink() || edge.to == net.source()) continue; // dropped
    if (edge.to != net.sink()) ++amps; // negation-widget NIC
  }
  for (int v = 0; v < net.num_vertices(); ++v) {
    if (v == net.source() || v == net.sink()) continue;
    if (touched[v]) ++amps; // column NIC
  }
  return amps;
}

PowerReport estimate_power(const graph::FlowNetwork& net, const PowerParams& p) {
  PowerReport r;
  r.active_opamps = count_active_opamps(net);
  r.opamp_power = r.active_opamps * p.p_amp;
  return r;
}

PowerReport measure_power(const graph::FlowNetwork& net, const PowerParams& p,
                          const circuit::Netlist& netlist,
                          const circuit::MnaAssembler& mna,
                          std::span<const double> x) {
  PowerReport r = estimate_power(net, p);
  double watts = 0.0;
  for (const auto& res : netlist.resistors()) {
    if (res.resistance <= 0.0) continue;
    const double v = mna.node_voltage(res.a, x) - mna.node_voltage(res.b, x);
    watts += v * v / res.resistance;
  }
  for (const auto& mem : netlist.memristors()) {
    const double v = mna.node_voltage(mem.a, x) - mna.node_voltage(mem.b, x);
    watts += v * v / mem.memristance;
  }
  r.resistor_power = watts;
  return r;
}

long long max_edges_for_budget(double budget_watts, const PowerParams& p) {
  if (p.p_amp <= 0.0) return 0;
  return static_cast<long long>(budget_watts / p.p_amp);
}

double analog_energy(const PowerReport& report, double convergence_time_s) {
  return report.total() * convergence_time_s;
}

double cpu_energy(const PowerParams& p, double cpu_time_s) {
  return p.cpu_power * cpu_time_s;
}

} // namespace aflow::analog
