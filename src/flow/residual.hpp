// Shared residual-graph representation for the augmenting-path and
// push-relabel solvers: the network's arc layout (graph::ArcLayout), which
// every residual of one topology shares, plus a capacity per arc in layout
// order.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "flow/maxflow.hpp"
#include "graph/network.hpp"
#include "util/cancel.hpp"

namespace aflow::flow::detail {

/// Vertices inside a residual are layout positions (graph::ArcLayout);
/// every entry point below that names a vertex takes an input vertex id and
/// maps it through vertex(), and every result is in input vertex and edge
/// ids, so the internal order never leaks.
struct Residual {
  /// The zero flow of `net`. The network's first exact solve builds its
  /// arc layout here, under `cancel`; so does the capacity fill, which
  /// checks `cancel` at a fixed work stride.
  explicit Residual(const graph::FlowNetwork& net,
                    const util::CancelToken& cancel = {});

  /// Builds the residual of `net` carrying a prior per-edge flow (clamped
  /// into [0, capacity], so a flow that an edit made infeasible enters as a
  /// capacity-feasible pseudo-flow whose conservation violations the delta
  /// repair then drains). This is the carry-over seam of the incremental
  /// re-solve path (flow/delta.hpp).
  Residual(const graph::FlowNetwork& net, std::span<const double> prior_flow,
           const util::CancelToken& cancel = {});

  std::shared_ptr<const graph::ArcLayout> layout;
  /// Residual capacity per arc. An edge's forward arc holds its capacity
  /// minus its flow, its reverse arc the flow: augmentation preserves
  /// cap[a] + cap[sister[a]] = capacity.
  std::vector<double> cap;
  int n = 0;

  /// The layout position of input vertex `v`.
  int vertex(int v) const { return layout->position[static_cast<size_t>(v)]; }

  /// Extracts per-input-edge flow (forward capacity consumed).
  std::vector<double> edge_flows(const graph::FlowNetwork& net) const;

  /// Flow value currently carried: net flow out of input vertex `s`, read
  /// from the reverse arcs, its out-edges' first and then its in-edges',
  /// each in edge order.
  double flow_value_at(const graph::FlowNetwork& net, int s) const;

  /// max(1, largest residual capacity): the scale that the repair's and
  /// the push-relabel pass's dust thresholds are relative to.
  double capacity_scale() const;

  /// Conservation surplus (inflow - outflow) per layout position under the
  /// carried flow, read from the residual alone: an edge carries its
  /// reverse arc's capacity. Source/sink entries are reported but are not
  /// repair targets.
  std::vector<double> imbalances() const;
};

/// Restores conservation at every ordinary vertex of a capacity-feasible
/// pseudo-flow held in `r`, by shortest-path pushes over the residual: every
/// excess drains to {s, t, nearest deficit}, then every deficit fills from a
/// terminal. Termination follows from flow decomposition of the carried
/// pseudo-flow (DESIGN.md "Incremental re-solve: the delta path"). Counts
/// one op per push into `ops`; returns false when no progress is possible
/// (numerically degenerate carry), in which case the caller should discard
/// the carry and solve from scratch. Shared by the delta re-solve path and
/// the sharded-solve boundary stitch (core/sharded_solver.hpp), whose
/// min-matched cut-arc flows violate conservation exactly at region
/// boundaries.
/// This entry point and the three below take an optional util::CancelToken
/// and check it at their natural phase boundaries (one repair push, one Dinic
/// BFS phase, every ~1k push-relabel queue pops); a tripped token unwinds
/// with util::CancelledError. The default token never cancels and costs one
/// null test per check.
bool repair_conservation(Residual& r, int s, int t, long long& ops,
                         const util::CancelToken& cancel = {});

/// The same repair from caller-named imbalances, for a caller that knows
/// where they are: `im` holds every layout position's conservation surplus
/// (inflow - outflow), `pending` the positions whose surplus may exceed the
/// dust threshold, repaired in that order (s and t stay input ids). A push
/// only moves surplus between vertices already named, so no other vertex
/// needs a look. The entry above names every imbalanced vertex by a full
/// scan; the stateful delta re-solve (flow/delta.hpp) names the endpoints
/// of the edges whose flow an edit clamped.
bool repair_conservation(Residual& r, int s, int t, std::vector<double> im,
                         std::vector<int> pending, long long& ops,
                         const util::CancelToken& cancel = {});

/// Augments the (feasible-flow) residual `r` to a maximum flow with Dinic
/// blocking flows; returns the flow value added and counts augmenting paths
/// into `ops`. Cold solves pass a fresh Residual (zero flow); the delta path
/// passes a repaired carry-over residual.
double dinic_augment(Residual& r, int s, int t, long long& ops,
                     const util::CancelToken& cancel = {});

/// Runs the one push-relabel pass (flow/push_relabel.cpp: FIFO discharge,
/// gap heuristic, exact global relabels that also refresh heights during
/// the pass, parking at height n and the phase-2 return of parked excess)
/// from the feasible flow currently held in `r`, leaving `r` a maximum
/// flow; returns pushes + relabels. A feasible flow is a preflow with no
/// excess, so the standard initialisation (saturate the s-adjacent
/// residual arcs, discharge) is valid from any carried flow, not just the
/// zero flow: cold solves pass a fresh Residual, the delta path a repaired
/// carry-over residual, the sharded solver its stitched flow. When
/// `metrics` is non-null the pass's counters (injected_excess_arcs,
/// returned_excess_walks, phase2_fallbacks) are added to it.
long long push_relabel_augment(Residual& r, int s, int t,
                               const util::CancelToken& cancel = {},
                               SolveMetrics* metrics = nullptr);

} // namespace aflow::flow::detail
