#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>

#include "flow/maxflow.hpp"

namespace aflow::flow {

MinCutResult min_cut_from_flow(const graph::FlowNetwork& net,
                               const MaxFlowResult& flow) {
  const int n = net.num_vertices();
  MinCutResult cut;
  cut.side.assign(n, 0);

  // Saturation tolerance, relative to the instance's capacity scale: at
  // capacities >= 1e9 the rounding dust a solver leaves on a saturated
  // arc exceeds any absolute threshold, and a BFS that crosses one such
  // arc walks past the true cut (clamped below by the historical absolute
  // value so small instances behave exactly as before).
  constexpr double kEpsAbs = 1e-9;
  double scale = 1.0;
  for (int e = 0; e < net.num_edges(); ++e)
    scale = std::max(scale, net.edge(e).capacity);
  const double eps = kEpsAbs * scale;

  // BFS in the residual graph from the source: an out-edge (even arc) is
  // residual while unsaturated, an in-edge (odd arc) while it carries flow.
  const graph::Incidence inc = graph::incidence(net);
  std::queue<int> q;
  q.push(net.source());
  cut.side[net.source()] = 1;
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    for (int arc : inc.at(v)) {
      const int e = arc >> 1;
      const auto& edge = net.edge(e);
      const bool out = !(arc & 1);
      const int u = out ? edge.to : edge.from;
      const bool residual = out ? edge.capacity - flow.edge_flow[e] > eps
                                : flow.edge_flow[e] > eps;
      if (!cut.side[u] && residual) {
        cut.side[u] = 1;
        q.push(u);
      }
    }
  }

  for (int e = 0; e < net.num_edges(); ++e) {
    const auto& edge = net.edge(e);
    if (cut.side[edge.from] && !cut.side[edge.to]) {
      cut.cut_edges.push_back(e);
      cut.cut_value += edge.capacity;
    }
  }
  return cut;
}

std::string check_flow(const graph::FlowNetwork& net, const MaxFlowResult& result,
                       double tol) {
  std::ostringstream err;
  if (static_cast<int>(result.edge_flow.size()) != net.num_edges())
    return "edge_flow size mismatch";

  // The feasibility half. One accumulator pass over the edge list:
  // capacity bounds per edge and the net outflow of every vertex. Every
  // comparison is written to fail on NaN, and an infinite flow fails the
  // bounds or the value check, so a non-finite result is never reported
  // feasible.
  std::vector<double> net_out(net.num_vertices(), 0.0);
  for (int e = 0; e < net.num_edges(); ++e) {
    const double f = result.edge_flow[e];
    const auto& edge = net.edge(e);
    if (!(f >= -tol && f <= edge.capacity + tol)) {
      err << "infeasible: edge " << e << ": flow " << f << " outside [0, "
          << edge.capacity << "]";
      return err.str();
    }
    net_out[edge.from] += f;
    net_out[edge.to] -= f;
  }
  for (int v = 0; v < net.num_vertices(); ++v) {
    if (v == net.source() || v == net.sink()) continue;
    if (!(std::abs(net_out[v]) <= tol)) {
      err << "infeasible: vertex " << v << ": conservation violated by "
          << -net_out[v];
      return err.str();
    }
  }
  const double source_out = net_out[net.source()];
  if (!(std::abs(source_out - result.flow_value) <= tol)) {
    err << "infeasible: flow_value " << result.flow_value
        << " != net source outflow " << source_out;
    return err.str();
  }

  // The min-cut half: a feasible flow is maximum iff no residual path
  // joins s to t, and then the capacity leaving the set reached from s
  // equals the flow value (max-flow/min-cut duality).
  const MinCutResult cut = min_cut_from_flow(net, result);
  if (cut.side[net.sink()])
    return "not maximum: a residual path joins the source to the sink";
  const double scale = std::max(1.0, net.max_capacity());
  if (!(std::abs(cut.cut_value - result.flow_value) <= tol * scale)) {
    err << "not maximum: flow_value " << result.flow_value << " != capacity "
        << cut.cut_value << " leaving the source's residual side";
    return err.str();
  }
  return {};
}

} // namespace aflow::flow
