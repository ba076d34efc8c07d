#include "mincut/dual_circuit.hpp"

#include <cmath>
#include <string>

#include "circuit/mna.hpp"
#include "sim/dc.hpp"

namespace aflow::mincut {

namespace {

class DualCircuitBuilder {
 public:
  DualCircuitBuilder(const graph::FlowNetwork& g, const DualCircuitOptions& opt)
      : g_(g), opt_(opt), r_(opt.config.lrs_resistance) {}

  struct Built {
    circuit::Netlist nl;
    std::vector<circuit::NodeId> p;       // per vertex
    std::vector<circuit::NodeId> d;       // per edge
    std::vector<int> g_clamp;             // diode id per edge constraint
    int st_clamp = -1;                    // diode id of p_s - p_t >= 1
    double i_unit = 0.0;                  // objective current per capacity unit
  };

  Built build() {
    Built b;
    auto& nl = b.nl;
    const double c_max = g_.max_capacity();
    b.i_unit = opt_.objective_scale * 1.0 / r_ / c_max; // amps per cap unit

    // Variable nodes with non-negativity clamps.
    b.p.resize(g_.num_vertices());
    for (int v = 0; v < g_.num_vertices(); ++v) {
      b.p[v] = nl.new_node("p" + std::to_string(v));
      nl.add_diode(circuit::kGround, b.p[v], opt_.config.diode);
    }
    b.d.resize(g_.num_edges());
    for (int e = 0; e < g_.num_edges(); ++e) {
      b.d[e] = nl.new_node("d" + std::to_string(e));
      nl.add_diode(circuit::kGround, b.d[e], opt_.config.diode);
      // Objective: constant pull toward 0 proportional to the capacity.
      nl.add_isource(b.d[e], circuit::kGround, b.i_unit * g_.edge(e).capacity);
    }

    // Widget resistors are scaled up to decouple inactive constraints and
    // reduce the virtual-ground loading of the p nodes.
    const double rc = r_ * opt_.constraint_resistor_factor;

    // Shared negation widgets p_v^-.
    std::vector<circuit::NodeId> p_neg(g_.num_vertices(), -1);
    auto p_minus = [&](int v) {
      if (p_neg[v] >= 0) return p_neg[v];
      const auto pm = nl.new_node("p" + std::to_string(v) + "m");
      const auto mid = nl.new_node();
      nl.add_resistor(b.p[v], mid, rc);
      nl.add_resistor(pm, mid, rc);
      add_negres(nl, mid, rc / 2.0);
      p_neg[v] = pm;
      return pm;
    };

    // Edge constraint widgets: g = -(d - p_i + p_j), clamp g <= 0.
    b.g_clamp.resize(g_.num_edges());
    for (int e = 0; e < g_.num_edges(); ++e) {
      const auto& edge = g_.edge(e);
      const auto a = nl.new_node();
      const auto gn = nl.new_node("g" + std::to_string(e));
      nl.add_resistor(b.d[e], a, rc);
      nl.add_resistor(p_minus(edge.from), a, rc);
      nl.add_resistor(b.p[edge.to], a, rc);
      nl.add_resistor(gn, a, rc);
      add_negres(nl, a, rc / 4.0);
      b.g_clamp[e] = nl.add_diode(gn, circuit::kGround, opt_.config.diode);
    }

    // Source/sink constraint: h = p_s - p_t - 1 >= 0.
    {
      const auto ref = nl.new_node("ref1v");
      nl.add_vsource(ref, circuit::kGround, 1.0);
      const auto bnode = nl.new_node();
      const auto h = nl.new_node("h_st");
      nl.add_resistor(p_minus(g_.source()), bnode, rc);
      nl.add_resistor(b.p[g_.sink()], bnode, rc);
      nl.add_resistor(ref, bnode, rc);
      nl.add_resistor(h, bnode, rc);
      add_negres(nl, bnode, rc / 4.0);
      b.st_clamp = nl.add_diode(circuit::kGround, h, opt_.config.diode);
    }
    return b;
  }

 private:
  void add_negres(circuit::Netlist& nl, circuit::NodeId node, double magnitude) {
    switch (opt_.config.fidelity) {
      case analog::NegResFidelity::kOpAmpNic:
        nl.add_nic_negative_resistor(node, magnitude, opt_.config.nic_r0,
                                     opt_.config.opamp_params());
        break;
      default:
        nl.add_negative_resistor(node, circuit::kGround, magnitude, 0.0);
        break;
    }
  }

  const graph::FlowNetwork& g_;
  const DualCircuitOptions& opt_;
  double r_;
};

} // namespace

AnalogMinCutResult solve_mincut_dual(const graph::FlowNetwork& net,
                                     const DualCircuitOptions& options) {
  net.validate();
  DualCircuitBuilder builder(net, options);
  auto built = builder.build();

  sim::DcOptions dc_opt;
  dc_opt.ordering_cache = options.ordering_cache;
  dc_opt.cancel = options.cancel;
  sim::DcSolver solver(built.nl, dc_opt);
  circuit::DeviceState state = circuit::DeviceState::initial(built.nl);

  AnalogMinCutResult out;
  auto accumulate = [&](const sim::DcStats& s) { sim::add_dc_stats(out, s); };

  // Cross-request warm start (see DualCircuitOptions::reuse_pool): the
  // shared bit-stable pool protocol seeds the LCP search from the previous
  // same-pattern request's converged state; a failed attempt falls back to
  // the cold start.
  std::uint64_t pool_key = 0;
  std::vector<double> x;
  sim::PooledWarmStart warm;
  if (options.reuse_pool) {
    pool_key = solver.pattern_key();
    warm = sim::pooled_warm_start(solver, *options.reuse_pool, pool_key, state,
                                  options.warm_iteration_budget, accumulate);
    out.pool_hits = warm.pool_hit ? 1 : 0;
    out.pool_misses = warm.pool_hit ? 0 : 1;
    if (warm.primed) out.full_factors++; // the priming factorisation
  }
  if (warm.solved) {
    x = std::move(warm.x);
    out.warm_started = true;
  } else {
    x = solver.solve(state);
  }
  accumulate(solver.stats());

  if (options.reuse_pool) {
    core::ReuseEntry entry;
    entry.lu = solver.export_warm_start().lu_prototype;
    entry.state = std::make_shared<const circuit::DeviceState>(state);
    entry.x = std::make_shared<const std::vector<double>>(x);
    out.pool_evictions = options.reuse_pool->store(pool_key, std::move(entry));
  }

  const auto& mna = solver.assembler();
  out.p_values.resize(net.num_vertices());
  out.side.resize(net.num_vertices());
  for (int v = 0; v < net.num_vertices(); ++v) {
    out.p_values[v] = mna.node_voltage(built.p[v], x);
    out.side[v] = out.p_values[v] > 0.5 ? 1 : 0;
  }
  out.d_values.resize(net.num_edges());
  out.edge_flow.resize(net.num_edges());
  for (int e = 0; e < net.num_edges(); ++e) {
    out.d_values[e] = mna.node_voltage(built.d[e], x);
    out.cut_value += net.edge(e).capacity * out.d_values[e];
    // Dual recovery: the clamp-diode current is the constraint's multiplier,
    // i.e. the edge flow. The widget injects it through the g branch whose
    // unit resistor carries it to the star; force balance at d converts the
    // objective scale (i_unit amps per capacity unit) back to flow units.
    out.edge_flow[e] = -mna.diode_current(built.g_clamp[e], x, state) /
                       (4.0 * built.i_unit);
  }
  out.flow_value =
      mna.diode_current(built.st_clamp, x, state) / (4.0 * built.i_unit);
  return out;
}

} // namespace aflow::mincut
