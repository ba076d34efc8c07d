#include "flow/delta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "flow/residual.hpp"

namespace aflow::flow {

namespace {

MaxFlowResult solve_delta_impl(const graph::FlowNetwork& net,
                               const CapacityDelta& delta,
                               const MaxFlowResult& prior,
                               bool use_push_relabel,
                               const util::CancelToken& cancel) {
  const auto scratch = [&](bool fallback) {
    MaxFlowResult r =
        use_push_relabel ? push_relabel(net, cancel) : dinic(net, cancel);
    r.metrics.delta_fallbacks = fallback ? 1 : 0;
    r.metrics.edges_touched = delta.distinct_edges();
    return r;
  };
  if (!delta_prior_usable(net, prior)) return scratch(/*fallback=*/true);

  detail::Residual r(net, prior.edge_flow);
  MaxFlowResult result;
  // The shared conservation repair (flow/residual.hpp) drains the carry's
  // imbalances; a false return means a numerically degenerate prior.
  if (!detail::repair_conservation(r, net.source(), net.sink(),
                                   result.operations, cancel))
    return scratch(/*fallback=*/true);
  // Either backend's own pass then augments the repaired flow. Push-relabel
  // floods the source arcs from it: the opening global relabel skips arcs
  // into vertices that cannot reach the sink, and excess cut off later
  // parks at n, where a height refresh lifts a whole cut-off region at once
  // (DESIGN.md "Incremental re-solve: the delta path").
  if (use_push_relabel)
    result.operations += detail::push_relabel_augment(
        r, net.source(), net.sink(), cancel, &result.metrics);
  else
    detail::dinic_augment(r, net.source(), net.sink(), result.operations,
                          cancel);

  result.flow_value = r.flow_value_at(net, net.source());
  result.edge_flow = r.edge_flows(net);
  result.metrics.delta_solves = 1;
  result.metrics.edges_touched = delta.distinct_edges();
  return result;
}

} // namespace

int CapacityDelta::distinct_edges() const {
  std::unordered_set<int> edges;
  edges.reserve(edits.size());
  for (const CapacityEdit& e : edits) edges.insert(e.edge);
  return static_cast<int>(edges.size());
}

void CapacityDelta::apply(graph::FlowNetwork& net) {
  // All-or-nothing: validate every edit before mutating anything, so a bad
  // trailing edit cannot leave the network half-edited or clobber the
  // old_capacity fields recorded for the edits before it. The rules mirror
  // FlowNetwork::set_capacity exactly (index in range, capacity positive
  // and finite, so neither NaN nor inf).
  for (const CapacityEdit& e : edits) {
    if (e.edge < 0 || e.edge >= net.num_edges())
      throw std::invalid_argument("CapacityDelta: edge index " +
                                  std::to_string(e.edge) + " out of range");
    if (!(e.capacity > 0.0 && std::isfinite(e.capacity)))
      throw std::invalid_argument("CapacityDelta: capacity for edge " +
                                  std::to_string(e.edge) +
                                  " must be positive and finite");
  }
  for (CapacityEdit& e : edits) {
    e.old_capacity = net.edge(e.edge).capacity;
    net.set_capacity(e.edge, e.capacity);
  }
}

std::vector<CapacityEdit> CapacityDelta::composed() const {
  std::vector<CapacityEdit> out;
  out.reserve(edits.size());
  std::unordered_map<int, size_t> slot; // edge -> index in out
  slot.reserve(edits.size());
  for (const CapacityEdit& e : edits) {
    const auto [it, fresh] = slot.emplace(e.edge, out.size());
    if (fresh)
      out.push_back(e); // first edit keeps the first old_capacity
    else
      out[it->second].capacity = e.capacity; // last new capacity wins
  }
  return out;
}

double CapacityDelta::max_relative_change() const {
  double worst = 0.0;
  for (const CapacityEdit& e : composed()) {
    if (e.old_capacity < 0.0)
      return std::numeric_limits<double>::infinity();
    worst = std::max(worst, std::abs(e.capacity - e.old_capacity) /
                                std::max(e.old_capacity, 1.0));
  }
  return worst;
}

CapacityDelta delta_between(const graph::FlowNetwork& before,
                            const graph::FlowNetwork& after) {
  if (before.num_vertices() != after.num_vertices() ||
      before.num_edges() != after.num_edges() ||
      before.source() != after.source() || before.sink() != after.sink())
    throw std::invalid_argument(
        "delta_between: instances differ in topology, not just capacities");
  CapacityDelta d;
  for (int e = 0; e < before.num_edges(); ++e) {
    const graph::Edge& a = before.edge(e);
    const graph::Edge& b = after.edge(e);
    if (a.from != b.from || a.to != b.to)
      throw std::invalid_argument(
          "delta_between: edge " + std::to_string(e) + " endpoints differ");
    if (a.capacity != b.capacity)
      d.edits.push_back({e, b.capacity, a.capacity});
  }
  return d;
}

bool delta_prior_usable(const graph::FlowNetwork& net,
                        const MaxFlowResult& prior) {
  if (static_cast<int>(prior.edge_flow.size()) != net.num_edges())
    return false;
  for (const double f : prior.edge_flow)
    if (!std::isfinite(f)) return false;
  return true;
}

MaxFlowResult dinic_delta(const graph::FlowNetwork& net,
                          const CapacityDelta& delta,
                          const MaxFlowResult& prior,
                          const util::CancelToken& cancel) {
  return solve_delta_impl(net, delta, prior, /*use_push_relabel=*/false,
                          cancel);
}

MaxFlowResult push_relabel_delta(const graph::FlowNetwork& net,
                                 const CapacityDelta& delta,
                                 const MaxFlowResult& prior,
                                 const util::CancelToken& cancel) {
  return solve_delta_impl(net, delta, prior, /*use_push_relabel=*/true,
                          cancel);
}

} // namespace aflow::flow
