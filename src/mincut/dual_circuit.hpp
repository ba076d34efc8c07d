// Analog min-cut solver via the dual LP (Sec. 6.3, Figs. 12-14).
//
// The min-cut linear program:
//     minimize   sum c_ij d_ij
//     subject to d_ij - p_i + p_j >= 0   for every edge (i, j)
//                p_s - p_t >= 1
//                p_i >= 0, d_ij >= 0
//
// Circuit realisation built from the same primitives as the max-flow
// substrate (the paper only sketches this architecture; this is the
// concrete design):
//  - one node per variable (p_i, d_ij);
//  - a negation widget per vertex producing p_i^- (shared by all of i's
//    outgoing constraint widgets);
//  - per edge, an adder widget: a star node A with unit resistors to
//    d_ij, p_i^-, p_j and to a sense node g_ij, plus a -r/4 negative
//    resistor at A, enforcing  V(g_ij) = -(d_ij - p_i + p_j);
//  - a diode clamping V(g_ij) <= 0, i.e. the constraint g >= 0; when the
//    constraint is active the diode current is the constraint's dual
//    variable — which for this LP is precisely the edge flow;
//  - the source/sink constraint p_s - p_t >= 1 via the same widget with a
//    1 V reference in the star;
//  - the objective as current sources pulling each d_ij toward ground with
//    magnitude proportional to c_ij (linear objective => constant forces);
//  - diodes clamping every p and d non-negative.
//
// At the operating point, V(p_i) in [0, 1] approximates the partition
// indicator and sum c_ij V(d_ij) the cut value.
#pragma once

#include <memory>

#include "analog/substrate_config.hpp"
#include "core/reuse_pool.hpp"
#include "flow/maxflow.hpp"
#include "graph/network.hpp"
#include "util/cancel.hpp"

namespace aflow::mincut {

struct DualCircuitOptions {
  analog::SubstrateConfig config; // r, diode model, fidelity for negres
  /// Objective current for a full-capacity edge, as a fraction of (1V / r).
  double objective_scale = 1.0;
  /// Constraint-widget resistors are this multiple of r. Larger values
  /// reduce the parasitic resistive coupling between variable nodes through
  /// inactive constraint stars (the dominant distortion of the analog LP),
  /// at the cost of larger internal voltage swings. 50 gives exact
  /// thresholded partitions across the test corpus; beyond ~100 the DC
  /// complementarity search starts to struggle.
  double constraint_resistor_factor = 50.0;
  /// Optional cross-instance ordering share (see sim::DcOptions).
  std::shared_ptr<la::OrderingCache> ordering_cache;
  /// Optional cross-request warm start through the same per-pattern
  /// entries the DC/transient adapters use (core::ReusePool). The dual
  /// circuit's structure depends only on the graph topology — capacities
  /// enter as current-source values — so a reconfigured instance hits the
  /// previous request's entry and seeds the LCP search from its converged
  /// state, typically collapsing dozens of complementarity iterations to a
  /// couple. Bit-identical to the cold path by construction: only the
  /// pattern-pure column ordering is taken from the pooled prototype, and
  /// the solver is primed with the exact factorisation a cold solve would
  /// compute first (sim::WarmStart::prime_state).
  std::shared_ptr<core::ReusePool> reuse_pool;
  /// Iteration cap for the pooled warm attempt before falling back to the
  /// cold start (bounds the cost of a stale seed).
  int warm_iteration_budget = 48;
  /// Cooperative cancellation, checked at every Newton iteration of the
  /// underlying DC solve (util/cancel.hpp). Default never cancels.
  util::CancelToken cancel;
};

/// The counters come from the flow::SolveMetrics base: DC iterations
/// (warm + cold == iterations), factorisations including a warm start's
/// canonical priming one, and ReusePool traffic (zero without a pool; one
/// lookup per solve).
struct AnalogMinCutResult : flow::SolveMetrics {
  double cut_value = 0.0;          // capacity units
  std::vector<char> side;          // side[v] = 1 if source side (p_v > 0.5)
  std::vector<double> d_values;    // V(d_ij) per edge (cut indicators)
  std::vector<double> p_values;    // V(p_i) per vertex
  std::vector<double> edge_flow;   // recovered dual variables (flow), cap units
  double flow_value = 0.0;         // recovered total flow (weak-duality check)
};

/// Builds and solves the dual circuit at DC. Throws sim::ConvergenceError if
/// the operating point cannot be found.
AnalogMinCutResult solve_mincut_dual(const graph::FlowNetwork& net,
                                     const DualCircuitOptions& options = {});

} // namespace aflow::mincut
