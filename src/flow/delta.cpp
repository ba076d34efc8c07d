#include "flow/delta.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "flow/residual.hpp"

namespace aflow::flow {

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

// The edge-flow re-solves are the stateful ones on a fresh state (the
// carry, the full-scan repair, the augment) plus the extraction.
MaxFlowResult dinic_delta(const graph::FlowNetwork& net,
                          const CapacityDelta& delta,
                          const MaxFlowResult& prior,
                          const util::CancelToken& cancel) {
  DeltaState state;
  MaxFlowResult r = dinic_resolve(net, delta, prior, state, cancel);
  r.edge_flow = state.edge_flows(net);
  return r;
}

MaxFlowResult push_relabel_delta(const graph::FlowNetwork& net,
                                 const CapacityDelta& delta,
                                 const MaxFlowResult& prior,
                                 const util::CancelToken& cancel) {
  DeltaState state;
  MaxFlowResult r = push_relabel_resolve(net, delta, prior, state, cancel);
  r.edge_flow = state.edge_flows(net);
  return r;
}

DeltaState::DeltaState() = default;
DeltaState::~DeltaState() = default;
DeltaState::DeltaState(DeltaState&&) noexcept = default;
DeltaState& DeltaState::operator=(DeltaState&&) noexcept = default;

void DeltaState::clear() { residual_.reset(); }

std::vector<double> DeltaState::edge_flows(
    const graph::FlowNetwork& net) const {
  return residual_ ? residual_->edge_flows(net) : std::vector<double>{};
}

bool DeltaState::apply_edits(const graph::FlowNetwork& net,
                             const CapacityDelta& delta, long long& ops,
                             const util::CancelToken& cancel, bool& maximal) {
  detail::Residual& r = *residual_;
  const graph::ArcLayout& g = *r.layout;
  std::vector<double> im; // allocated at the first clamp
  std::vector<int> pending;
  bool raised = false;
  for (const CapacityEdit& e : delta.composed()) {
    if (e.edge < 0 || e.edge >= net.num_edges())
      throw std::invalid_argument("DeltaState: edge index " +
                                  std::to_string(e.edge) + " out of range");
    const double capacity = net.edge(e.edge).capacity;
    const int fwd = g.forward[static_cast<size_t>(e.edge)];
    const int rev = g.sister[fwd];
    const double flow = r.cap[rev];
    const double kept = std::min(flow, capacity);
    raised = raised || capacity > r.cap[fwd] + flow;
    r.cap[fwd] = capacity - kept;
    r.cap[rev] = kept;
    if (kept < flow) {
      // Layout positions: the reverse arc points at the tail, the forward
      // arc at the head.
      const int tail = g.head[rev];
      const int head = g.head[fwd];
      if (im.empty()) im.assign(static_cast<size_t>(r.n), 0.0);
      im[static_cast<size_t>(tail)] += flow - kept; // tail keeps it
      im[static_cast<size_t>(head)] -= flow - kept; // head misses it
      pending.push_back(tail);
      pending.push_back(head);
    }
  }
  // Without a clamp the kept flow is still a feasible flow: no repair, and
  // no capacity-scale scan. If no capacity went up either, the maximum
  // cannot have grown, so the kept flow is still a maximum flow.
  maximal = pending.empty() && !raised;
  if (pending.empty()) return true;
  return detail::repair_conservation(r, net.source(), net.sink(),
                                     std::move(im), std::move(pending), ops,
                                     cancel);
}

MaxFlowResult DeltaState::resolve(const graph::FlowNetwork& net,
                                  const CapacityDelta& delta,
                                  const MaxFlowResult& prior,
                                  bool use_push_relabel,
                                  const util::CancelToken& cancel) {
  const int s = net.source(), t = net.sink();
  MaxFlowResult result;
  bool carried = false;
  bool maximal = false;
  try {
    cancel.check();
    // The kept residual answers only for its own topology: a network that
    // does not share its layout (not a copy of the state's network, nor
    // transformed from one) is a new topology, whatever its shape.
    if (residual_ && residual_->layout != net.arc_layout(cancel))
      residual_.reset();
    if (residual_) {
      carried = apply_edits(net, delta, result.operations, cancel, maximal);
    } else if (delta_prior_usable(net, prior)) {
      residual_ =
          std::make_unique<detail::Residual>(net, prior.edge_flow, cancel);
      // The full-scan repair drains the carry's imbalances; a false return
      // means a numerically degenerate prior.
      carried = detail::repair_conservation(*residual_, s, t,
                                            result.operations, cancel);
    }
    if (!carried) {
      residual_ = std::make_unique<detail::Residual>(net, cancel);
      result.operations = 0;
    }
    // Either backend's own pass then augments the repaired flow.
    // Push-relabel floods the source arcs from it: the opening global
    // relabel skips arcs into vertices that cannot reach the sink, and
    // excess cut off later parks at n, where a height refresh lifts a whole
    // cut-off region at once (DESIGN.md "Incremental re-solve: the delta
    // path").
    if (maximal) {
      // Edits that only lowered unclamped capacities: nothing to augment.
    } else if (use_push_relabel) {
      result.operations += detail::push_relabel_augment(*residual_, s, t,
                                                        cancel, &result.metrics);
    } else {
      detail::dinic_augment(*residual_, s, t, result.operations, cancel);
    }
    result.flow_value = residual_->flow_value_at(net, s);
  } catch (...) {
    residual_.reset(); // may hold a half-repaired pseudo-flow
    throw;
  }
  (carried ? result.metrics.delta_solves : result.metrics.delta_fallbacks) = 1;
  result.metrics.edges_touched = delta.distinct_edges();
  return result;
}

MaxFlowResult dinic_resolve(const graph::FlowNetwork& net,
                            const CapacityDelta& delta,
                            const MaxFlowResult& prior, DeltaState& state,
                            const util::CancelToken& cancel) {
  return state.resolve(net, delta, prior, /*use_push_relabel=*/false, cancel);
}

MaxFlowResult push_relabel_resolve(const graph::FlowNetwork& net,
                                   const CapacityDelta& delta,
                                   const MaxFlowResult& prior,
                                   DeltaState& state,
                                   const util::CancelToken& cancel) {
  return state.resolve(net, delta, prior, /*use_push_relabel=*/true, cancel);
}

} // namespace aflow::flow
