// First-class capacity deltas: the reconfiguration-stream currency of the
// serving layer (PR 6).
//
// The paper's core pitch is cheap *reconfiguration*: the substrate re-solves
// a perturbed instance far faster than a from-scratch run. A CapacityDelta
// is the batch of edge-capacity edits between two same-topology instances;
// the incremental digital solvers here carry the previous solution's
// residual graph across the edits and repair it instead of re-solving:
//
//  1. carry: rebuild the residual from the post-edit capacities and the
//     prior per-edge flow, clamping flow into [0, capacity] (an edit that
//     decreased a capacity below its carried flow leaves a capacity-feasible
//     pseudo-flow with conservation violations at the edge's endpoints);
//  2. repair: drain every conservation violation with shortest residual
//     paths — surplus inflow routes to a deficit node, the sink, or back to
//     the source; residual paths for both directions are guaranteed by flow
//     decomposition of the carried pseudo-flow, so the repair is total and
//     needs O(|changed region|) path searches for a k-edge edit;
//  3. re-augment: run the backend's own maximum-flow machinery from the
//     repaired feasible flow (Dinic blocking flows, or the push-relabel pass
//     flooding the source arcs that can still reach the sink), which only
//     does work where the edits opened new slack. The result is a true
//     maximum flow of the edited network — the invalidation rule and its
//     soundness argument live in DESIGN.md
//     "Incremental re-solve: the delta path".
//
// The delta path never trades correctness for speed: a prior of the wrong
// shape (or a repair that fails to make progress numerically) falls back to
// the from-scratch solver, counted in SolveMetrics::delta_fallbacks.
//
// A reconfiguration stream need not rebuild the residual at every step:
// the stateful re-solves (dinic_resolve, push_relabel_resolve) keep the
// residual of the last maximum flow in a DeltaState, write each step's
// edits into it, repair only where an edit clamped a flow, and re-augment.
// They carry once, from the prior's edge flows, when the state is empty.
#pragma once

#include <memory>
#include <vector>

#include "flow/maxflow.hpp"
#include "graph/network.hpp"

namespace aflow::flow {

/// One edge-capacity edit. `old_capacity` is recorded when the edit is
/// applied (CapacityDelta::apply) or diffed (delta_between), making the
/// delta invertible and its magnitude measurable; a negative value means
/// "not recorded".
struct CapacityEdit {
  int edge = -1;
  double capacity = 0.0;      // new capacity (validated: positive and finite)
  double old_capacity = -1.0; // pre-edit capacity, when known
};

/// A batch of capacity edits against one fixed topology. Edits apply in
/// order; a later edit to the same edge wins.
struct CapacityDelta {
  std::vector<CapacityEdit> edits;

  bool empty() const { return edits.empty(); }

  /// Distinct edges touched (after last-edit-wins merging).
  int distinct_edges() const;

  /// Applies the edits to `net` in order and records every edit's
  /// old_capacity. All-or-nothing: every index and capacity is validated
  /// up front (the same rules as FlowNetwork::set_capacity), so a bad
  /// trailing edit throws std::invalid_argument with the network unchanged
  /// and no old_capacity field overwritten.
  void apply(graph::FlowNetwork& net);

  /// Per-edge composition of the ordered edit list: one edit per distinct
  /// edge, carrying the FIRST recorded old_capacity and the LAST new
  /// capacity (order of first appearance). This is the net effect of the
  /// delta — when one delta edits an edge twice, the raw list's second
  /// old_capacity records the intermediate value, which is telemetry, not
  /// a change measure.
  std::vector<CapacityEdit> composed() const;

  /// Largest |capacity - old_capacity| / max(old_capacity, 1) over the
  /// *composed* (first-old, last-new) edits — the analog trust-region
  /// measure, so two edits that cancel out on one edge measure as no
  /// change rather than as the larger intermediate swing. 0 for an empty
  /// delta; +infinity when any composed edit lacks a recorded
  /// old_capacity (an unmeasured delta never passes a trust test).
  double max_relative_change() const;
};

/// Structural diff: the edits (with old_capacity recorded) that turn
/// `before` into `after`. Throws std::invalid_argument when the two differ
/// in topology (vertex count, edge count, endpoints, source/sink).
CapacityDelta delta_between(const graph::FlowNetwork& before,
                            const graph::FlowNetwork& after);

/// True when `prior` can seed an incremental re-solve of `net`: the
/// edge-flow vector matches the edge count and every entry is finite. (The
/// repair tolerates any such vector — feasibility is restored from
/// arbitrary pseudo-flows — so this is a shape check, not a semantic one.)
bool delta_prior_usable(const graph::FlowNetwork& net,
                        const MaxFlowResult& prior);

/// Incremental re-solves. `net` is the post-edit network, `prior` the
/// solution of the pre-edit instance; `delta` names the edited edges (used
/// for telemetry and the repair's work accounting — correctness does not
/// depend on it being exact). Returns a maximum flow of `net` whose value
/// (and min-cut value) is identical to a from-scratch solve; edge flows may
/// differ where maximum flows are non-unique. Falls back to the
/// from-scratch solver when `prior` is unusable, counted in
/// metrics.delta_fallbacks (metrics.delta_solves counts the fast path).
MaxFlowResult dinic_delta(const graph::FlowNetwork& net,
                          const CapacityDelta& delta,
                          const MaxFlowResult& prior,
                          const util::CancelToken& cancel = {});
MaxFlowResult push_relabel_delta(const graph::FlowNetwork& net,
                                 const CapacityDelta& delta,
                                 const MaxFlowResult& prior,
                                 const util::CancelToken& cancel = {});

namespace detail {
struct Residual;
} // namespace detail

class DeltaState;

/// Stateful re-solves, which advance the residual kept in `state` instead
/// of rebuilding one. The edge-flow re-solves above are these on a fresh
/// state, followed by DeltaState::edge_flows.
///
/// - Empty state (or one kept for another topology: `net` does not share
///   the state's arc layout, FlowNetwork::arc_layout): carry from
///   `prior.edge_flow` into the state and repair with the full scan; an
///   unusable prior, or a repair that cannot progress, solves from zero
///   into the state, counted in metrics.delta_fallbacks.
/// - Filled state: `delta` must name every edge whose capacity changed
///   since the state's last re-solve (`prior` is not read). Each composed
///   edit writes the edge's new capacity around its kept flow, clamping
///   the flow to the capacity; a clamp leaves its excess at the edge's
///   tail and its deficit at its head, and only those vertices are
///   repaired. The backend's augment follows, unless every edit lowered a
///   capacity without clamping its flow: the maximum cannot have grown,
///   so the kept flow is still a maximum flow.
///
/// The result carries the value, operations and metrics (delta_solves or
/// delta_fallbacks, edges_touched) but no edge_flow: DeltaState::edge_flows
/// extracts them for a caller that asks. A re-solve that throws (a tripped
/// `cancel`, a bad edge index) empties the state, whose residual may then
/// hold a half-repaired pseudo-flow.
MaxFlowResult dinic_resolve(const graph::FlowNetwork& net,
                            const CapacityDelta& delta,
                            const MaxFlowResult& prior, DeltaState& state,
                            const util::CancelToken& cancel = {});
MaxFlowResult push_relabel_resolve(const graph::FlowNetwork& net,
                                   const CapacityDelta& delta,
                                   const MaxFlowResult& prior,
                                   DeltaState& state,
                                   const util::CancelToken& cancel = {});

/// The residual that a reconfiguration stream keeps between stateful
/// re-solves: the maximum flow of the network the last re-solve solved.
/// Move-only, and empty until the first re-solve fills it. A state belongs
/// to one topology and one backend's stream of edits. It knows its
/// topology by its arc layout, which copies of its network share (and
/// capacity edits keep), so a re-solve of any other network starts afresh;
/// clear it when the backend changes.
class DeltaState {
 public:
  DeltaState();
  ~DeltaState();
  DeltaState(DeltaState&&) noexcept;
  DeltaState& operator=(DeltaState&&) noexcept;

  bool empty() const { return !residual_; }
  void clear();

  /// Per-edge flows of the kept maximum flow of `net`, the network of the
  /// last re-solve (O(m)); empty when the state is.
  std::vector<double> edge_flows(const graph::FlowNetwork& net) const;

 private:
  friend MaxFlowResult dinic_resolve(const graph::FlowNetwork&,
                                     const CapacityDelta&,
                                     const MaxFlowResult&, DeltaState&,
                                     const util::CancelToken&);
  friend MaxFlowResult push_relabel_resolve(const graph::FlowNetwork&,
                                            const CapacityDelta&,
                                            const MaxFlowResult&, DeltaState&,
                                            const util::CancelToken&);

  MaxFlowResult resolve(const graph::FlowNetwork& net,
                        const CapacityDelta& delta,
                        const MaxFlowResult& prior, bool use_push_relabel,
                        const util::CancelToken& cancel);
  /// Writes the composed edits into the kept residual and repairs the
  /// clamped edges' endpoints; false when the repair cannot progress.
  /// `maximal` is set when no edit raised a capacity or clamped a flow:
  /// the kept flow is then still a maximum flow.
  bool apply_edits(const graph::FlowNetwork& net, const CapacityDelta& delta,
                   long long& ops, const util::CancelToken& cancel,
                   bool& maximal);

  std::unique_ptr<detail::Residual> residual_;
};

} // namespace aflow::flow
