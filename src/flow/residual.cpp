#include "flow/residual.hpp"

#include <algorithm>
#include <queue>

namespace aflow::flow::detail {

Residual::Residual(const graph::FlowNetwork& net)
    : incidence(graph::incidence(net)), n(net.num_vertices()) {
  const int m = net.num_edges();
  cap.resize(2 * static_cast<size_t>(m));
  head.resize(2 * static_cast<size_t>(m));
  for (int e = 0; e < m; ++e) {
    const auto& edge = net.edge(e);
    cap[2 * static_cast<size_t>(e)] = edge.capacity;
    cap[2 * static_cast<size_t>(e) + 1] = 0.0;
    head[2 * static_cast<size_t>(e)] = edge.to;
    head[2 * static_cast<size_t>(e) + 1] = edge.from;
  }
}

Residual::Residual(const graph::FlowNetwork& net,
                   std::span<const double> prior_flow)
    : Residual(net) {
  const int m = net.num_edges();
  for (int e = 0; e < m; ++e) {
    const double c = net.edge(e).capacity;
    const double f = std::clamp(prior_flow[e], 0.0, c);
    cap[2 * static_cast<size_t>(e)] = c - f;
    cap[2 * static_cast<size_t>(e) + 1] = f;
  }
}

double Residual::flow_value_at(const graph::FlowNetwork& net, int s) const {
  // Even arcs of s are its out-edges, odd arcs its in-edges.
  double value = 0.0;
  for (int a : arcs(s))
    if (!(a & 1)) value += net.edge(a >> 1).capacity - cap[a];
  for (int a : arcs(s))
    if (a & 1) value -= net.edge(a >> 1).capacity - cap[a - 1];
  return value;
}

std::vector<double> Residual::edge_flows(const graph::FlowNetwork& net) const {
  std::vector<double> flows(net.num_edges());
  for (int e = 0; e < net.num_edges(); ++e)
    flows[e] = net.edge(e).capacity - cap[2 * static_cast<size_t>(e)];
  return flows;
}

std::vector<double> Residual::imbalances() const {
  std::vector<double> im(static_cast<size_t>(n), 0.0);
  const size_t m = cap.size() / 2;
  for (size_t e = 0; e < m; ++e) {
    const double f = cap[2 * e + 1];
    im[static_cast<size_t>(head[2 * e])] += f;     // edge head gains inflow
    im[static_cast<size_t>(head[2 * e + 1])] -= f; // edge tail pays outflow
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

double capacity_scale(const Residual& r) {
  double scale = 1.0;
  for (const double c : r.cap) scale = std::max(scale, c);
  return scale;
}

/// Shortest-path repair pusher over a carried residual. Both directions
/// terminate by flow decomposition of the carried pseudo-flow: a surplus
/// node's extra inflow is reversible back to the source, a deficit node's
/// extra outflow is reversible back from the sink.
class ConservationRepair {
 public:
  ConservationRepair(Residual& r, int s, int t, ArcTouchLog* touched)
      : r_(r), s_(s), t_(t), eps_(kImbalanceEps * capacity_scale(r)),
        im_(r.imbalances()), parent_arc_(r.n, -1), seen_(r.n, 0),
        touched_(touched) {
    if (touched_) arc_logged_.assign(r.cap.size(), 0);
  }

  /// All excesses drain before any deficit fills: once no excess nodes
  /// remain, decomposing the carried pseudo-flow shows every deficit node's
  /// surplus outflow reaches the sink, so the reverse search in fill_deficit
  /// always finds a terminal supplier.
  bool run(long long& ops, const util::CancelToken& cancel) {
    for (int v = 0; v < r_.n; ++v) {
      if (v == s_ || v == t_) continue;
      while (im_[v] > eps_) {
        cancel.check();
        if (!drain_excess(v)) return false;
        ops++;
      }
    }
    for (int v = 0; v < r_.n; ++v) {
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

  /// Moves `amount` across `arc`, logging both directions' pre-push
  /// capacities on first touch when a touch log is attached.
  void push_arc(int arc, double amount) {
    if (touched_) {
      for (const int a : {arc, r_.rev(arc)}) {
        if (!arc_logged_[static_cast<size_t>(a)]) {
          arc_logged_[static_cast<size_t>(a)] = 1;
          touched_->emplace_back(a, r_.cap[static_cast<size_t>(a)]);
        }
      }
    }
    r_.cap[static_cast<size_t>(arc)] -= amount;
    r_.cap[static_cast<size_t>(r_.rev(arc))] += amount;
  }

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
      for (int arc : r_.arcs(x)) {
        // Dust-capacity arcs (rounding residue of earlier pushes) are
        // saturated for repair purposes: routing through one would cap the
        // push at float noise and stall the repair.
        const int u = r_.head[arc];
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
    for (int x = target; x != v; x = r_.head[r_.rev(parent_arc_[x])])
      amount = std::min(amount, r_.cap[parent_arc_[x]]);
    if (amount <= eps_) return false;

    for (int x = target; x != v; x = r_.head[r_.rev(parent_arc_[x])])
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
      for (int arc : r_.arcs(x)) {
        // Predecessor u = head[arc] supplies x through the arc's reverse
        // (u -> x), which must have residual capacity above the dust
        // threshold (see drain_excess).
        const int u = r_.head[arc];
        if (seen_[u] == stamp_ || r_.cap[r_.rev(arc)] <= eps_)
          continue;
        seen_[u] = stamp_;
        parent_arc_[u] = r_.rev(arc); // the u -> x residual arc
        if (u == s_ || u == t_) {
          source_node = u;
          break;
        }
        q.push(u);
      }
    }
    if (source_node < 0) return false;

    double amount = -im_[v];
    for (int x = source_node; x != v; x = r_.head[parent_arc_[x]])
      amount = std::min(amount, r_.cap[parent_arc_[x]]);
    if (amount <= eps_) return false;

    for (int x = source_node; x != v; x = r_.head[parent_arc_[x]])
      push_arc(parent_arc_[x], amount);
    im_[v] += amount;
    return true;
  }

  Residual& r_;
  int s_, t_;
  double eps_;
  std::vector<double> im_;
  std::vector<int> parent_arc_;
  std::vector<int> seen_; // visit stamps: seen_[u] == stamp_ means visited
  ArcTouchLog* touched_;
  std::vector<char> arc_logged_; // per-arc "already in the touch log" flag
  int stamp_ = 0;
};

} // namespace

bool repair_conservation(Residual& r, int s, int t, long long& ops,
                         const util::CancelToken& cancel) {
  return ConservationRepair(r, s, t, nullptr).run(ops, cancel);
}

bool repair_conservation(Residual& r, int s, int t, long long& ops,
                         ArcTouchLog& touched,
                         const util::CancelToken& cancel) {
  return ConservationRepair(r, s, t, &touched).run(ops, cancel);
}

} // namespace aflow::flow::detail
