#include "flow/residual.hpp"

#include <algorithm>
#include <queue>
#include <utility>

namespace aflow::flow::detail {

namespace {

/// Edges filled between two cancellation checks of the capacity fill.
constexpr size_t kFillStride = size_t{1} << 14;

} // namespace

Residual::Residual(const graph::FlowNetwork& net,
                   const util::CancelToken& cancel)
    : Residual(net, {}, cancel) {}

Residual::Residual(const graph::FlowNetwork& net,
                   std::span<const double> prior_flow,
                   const util::CancelToken& cancel)
    : layout(net.arc_layout(cancel)), n(net.num_vertices()) {
  const std::span<const graph::Edge> edges = net.edges();
  cap.assign(2 * edges.size(), 0.0); // a reverse arc is written only for flow
  for (size_t e = 0; e < edges.size(); ++e) {
    if (e % kFillStride == 0) cancel.check();
    const double f =
        prior_flow.empty() ? 0.0 : std::clamp(prior_flow[e], 0.0, edges[e].capacity);
    const int a = layout->forward[e];
    cap[static_cast<size_t>(a)] = edges[e].capacity - f;
    if (f > 0.0) cap[static_cast<size_t>(layout->sister[static_cast<size_t>(a)])] = f;
  }
}

double Residual::capacity_scale() const {
  // Four independent running maxima: a single one is a chain of dependent
  // max instructions, and every repair and push-relabel pass runs this scan.
  double lane[4] = {1.0, 1.0, 1.0, 1.0};
  const size_t whole = cap.size() / 4 * 4;
  for (size_t i = 0; i < whole; i += 4)
    for (size_t k = 0; k < 4; ++k) lane[k] = std::max(lane[k], cap[i + k]);
  for (size_t i = whole; i < cap.size(); ++i)
    lane[0] = std::max(lane[0], cap[i]);
  return std::max(std::max(lane[0], lane[1]), std::max(lane[2], lane[3]));
}

// `net` is the residual's own network; the layout already holds what the
// read needs.
double Residual::flow_value_at(const graph::FlowNetwork&, int s) const {
  const graph::ArcLayout& g = *layout;
  const int p = vertex(s);
  double value = 0.0;
  for (int a = g.start[p]; a < g.in_begin[p]; ++a) value += cap[g.sister[a]];
  for (int a = g.in_begin[p]; a < g.start[p + 1]; ++a) value -= cap[a];
  return value;
}

std::vector<double> Residual::edge_flows(const graph::FlowNetwork& net) const {
  std::vector<double> flows(net.num_edges());
  for (int e = 0; e < net.num_edges(); ++e)
    flows[e] = net.edge(e).capacity - cap[layout->forward[e]];
  return flows;
}

std::vector<double> Residual::imbalances() const {
  const graph::ArcLayout& g = *layout;
  std::vector<double> im(static_cast<size_t>(n), 0.0);
  for (int v = 0; v < n; ++v)
    for (int a = g.in_begin[v]; a < g.start[v + 1]; ++a) {
      im[static_cast<size_t>(v)] += cap[a];         // edge head gains inflow
      im[static_cast<size_t>(g.head[a])] -= cap[a]; // edge tail pays outflow
    }
  return im;
}

namespace {

/// Imbalances below this are float dust, not repair work: digital priors
/// carry integral flows, so genuine violations are >= 1 capacity unit.
/// Relative to the instance's capacity scale — at capacities >= 1e9 the
/// rounding dust of carried flows exceeds any absolute threshold, so the
/// repair scales the epsilon by the largest residual capacity (clamped to
/// at least the historical absolute value so small instances behave
/// exactly as before).
constexpr double kImbalanceEps = 1e-9;

/// Shortest-path repair pusher over a carried residual. Both directions
/// terminate by flow decomposition of the carried pseudo-flow: a surplus
/// node's extra inflow is reversible back to the source, a deficit node's
/// extra outflow is reversible back from the sink. Vertices are layout
/// positions throughout.
class ConservationRepair {
 public:
  ConservationRepair(Residual& r, int s, int t, std::vector<double> im,
                     std::vector<int> pending)
      : r_(r), g_(*r.layout), s_(s), t_(t),
        eps_(kImbalanceEps * r.capacity_scale()), im_(std::move(im)),
        pending_(std::move(pending)), parent_arc_(r.n, -1), seen_(r.n, 0) {}

  /// All excesses drain before any deficit fills: once no excess nodes
  /// remain, decomposing the carried pseudo-flow shows every deficit node's
  /// surplus outflow reaches the sink, so the reverse search in fill_deficit
  /// always finds a terminal supplier.
  bool run(long long& ops, const util::CancelToken& cancel) {
    for (const int v : pending_) {
      if (v == s_ || v == t_) continue;
      while (im_[v] > eps_) {
        cancel.check();
        if (!drain_excess(v)) return false;
        ops++;
      }
    }
    for (const int v : pending_) {
      if (v == s_ || v == t_) continue;
      while (im_[v] < -eps_) {
        cancel.check();
        if (!fill_deficit(v)) return false;
        ops++;
      }
    }
    return true;
  }

 private:
  bool is_deficit(int v) const {
    return v != s_ && v != t_ && im_[v] < -eps_;
  }

  void push_arc(int arc, double amount) {
    r_.cap[static_cast<size_t>(arc)] -= amount;
    r_.cap[static_cast<size_t>(g_.sister[arc])] += amount;
  }

  /// The vertex that `arc` leaves.
  int tail(int arc) const { return g_.head[g_.sister[arc]]; }

  /// BFS forward from `v` to the nearest of {s, t, any deficit vertex};
  /// pushes the bottleneck (capped by both imbalances) along the path.
  bool drain_excess(int v) {
    ++stamp_;
    std::queue<int> q;
    q.push(v);
    seen_[v] = stamp_;
    int target = -1;
    while (!q.empty() && target < 0) {
      const int x = q.front();
      q.pop();
      for (int arc = g_.start[x]; arc < g_.start[x + 1]; ++arc) {
        // Dust-capacity arcs (rounding residue of earlier pushes) are
        // saturated for repair purposes: routing through one would cap the
        // push at float noise and stall the repair.
        const int u = g_.head[arc];
        if (seen_[u] == stamp_ || r_.cap[arc] <= eps_) continue;
        seen_[u] = stamp_;
        parent_arc_[u] = arc;
        if (u == s_ || u == t_ || is_deficit(u)) {
          target = u;
          break;
        }
        q.push(u);
      }
    }
    if (target < 0) return false;

    double amount = im_[v];
    if (is_deficit(target)) amount = std::min(amount, -im_[target]);
    for (int x = target; x != v; x = tail(parent_arc_[x]))
      amount = std::min(amount, r_.cap[parent_arc_[x]]);
    if (amount <= eps_) return false;

    for (int x = target; x != v; x = tail(parent_arc_[x]))
      push_arc(parent_arc_[x], amount);
    im_[v] -= amount;
    if (target != s_ && target != t_) im_[target] += amount;
    return true;
  }

  /// BFS backward from `v` to the nearest of {s, t} (all surplus vertices
  /// are drained before any fill runs, so only terminals can supply);
  /// pushes the bottleneck along the found u -> ... -> v residual path.
  bool fill_deficit(int v) {
    ++stamp_;
    std::queue<int> q;
    q.push(v);
    seen_[v] = stamp_;
    int source_node = -1;
    while (!q.empty() && source_node < 0) {
      const int x = q.front();
      q.pop();
      for (int arc = g_.start[x]; arc < g_.start[x + 1]; ++arc) {
        // Predecessor u = head[arc] supplies x through the arc's sister
        // (u -> x), which must have residual capacity above the dust
        // threshold (see drain_excess).
        const int u = g_.head[arc];
        if (seen_[u] == stamp_ || r_.cap[g_.sister[arc]] <= eps_)
          continue;
        seen_[u] = stamp_;
        parent_arc_[u] = g_.sister[arc]; // the u -> x residual arc
        if (u == s_ || u == t_) {
          source_node = u;
          break;
        }
        q.push(u);
      }
    }
    if (source_node < 0) return false;

    double amount = -im_[v];
    for (int x = source_node; x != v; x = g_.head[parent_arc_[x]])
      amount = std::min(amount, r_.cap[parent_arc_[x]]);
    if (amount <= eps_) return false;

    for (int x = source_node; x != v; x = g_.head[parent_arc_[x]])
      push_arc(parent_arc_[x], amount);
    im_[v] += amount;
    return true;
  }

  Residual& r_;
  const graph::ArcLayout& g_;
  int s_, t_;
  double eps_;
  std::vector<double> im_;
  std::vector<int> pending_;
  std::vector<int> parent_arc_;
  std::vector<int> seen_; // visit stamps: seen_[u] == stamp_ means visited
  int stamp_ = 0;
};

} // namespace

bool repair_conservation(Residual& r, int s, int t, long long& ops,
                         const util::CancelToken& cancel) {
  std::vector<double> im = r.imbalances();
  std::vector<int> pending;
  for (int v = 0; v < r.n; ++v)
    if (im[static_cast<size_t>(v)] != 0.0) pending.push_back(v);
  return repair_conservation(r, s, t, std::move(im), std::move(pending), ops,
                             cancel);
}

bool repair_conservation(Residual& r, int s, int t, std::vector<double> im,
                         std::vector<int> pending, long long& ops,
                         const util::CancelToken& cancel) {
  return ConservationRepair(r, r.vertex(s), r.vertex(t), std::move(im),
                            std::move(pending))
      .run(ops, cancel);
}

} // namespace aflow::flow::detail
