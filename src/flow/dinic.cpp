#include <algorithm>
#include <limits>

#include "flow/maxflow.hpp"
#include "flow/residual.hpp"

namespace aflow::flow {

namespace {

/// Blocking-flow augmenter over an externally owned residual, so the cold
/// solve (fresh residual) and the incremental delta path (carried residual,
/// flow/delta.hpp) share one implementation.
///
/// A vertex's level is its residual distance to the sink: each phase's BFS
/// starts at t and follows arcs whose reverse has residual capacity, and
/// stops before expanding any vertex at the source's level. So at the start
/// of a phase every levelled vertex has a residual arc one level closer to
/// t, and the descent from s reaches t without backtracking until arcs
/// saturate. The phases are still Dinic's shortest-path blocking flows.
class DinicSolver {
 public:
  DinicSolver(detail::Residual& r, int s, int t,
              const util::CancelToken& cancel)
      : r_(r), g_(*r.layout), s_(r.vertex(s)), t_(r.vertex(t)),
        cancel_(cancel), level_(r.n), it_(r.n), queue_(r.n) {}

  double augment(long long& ops) {
    double added = 0.0;
    // One cancellation check per BFS phase: at most n phases, each a full
    // blocking flow, so the check granularity matches the unit of real work.
    while (cancel_.check(), bfs_levels()) {
      std::copy(g_.start.begin(), g_.start.end() - 1, it_.begin());
      for (;;) {
        const double pushed = augment_path();
        if (pushed <= 0.0) break;
        added += pushed;
        ops++;
      }
    }
    return added;
  }

 private:
  /// Levels every vertex within the source's residual distance of t by that
  /// distance (-1 elsewhere); returns whether s is levelled. Vertices pop in
  /// level order, so the first pop at the source's level ends the search.
  bool bfs_levels() {
    std::fill(level_.begin(), level_.end(), -1);
    level_[t_] = 0;
    queue_[0] = t_;
    for (int head = 0, tail = 1; head < tail; ++head) {
      const int v = queue_[head];
      if (level_[v] == level_[s_]) break; // popped levels are >= 0
      for (int arc = g_.start[v]; arc < g_.start[v + 1]; ++arc) {
        const int u = g_.head[arc];
        if (level_[u] == -1 && r_.cap[g_.sister[arc]] > 0.0) {
          level_[u] = level_[v] + 1;
          queue_[tail++] = u;
        }
      }
    }
    return level_[s_] >= 0;
  }

  /// Finds and saturates one s-t path of the level graph by a depth-first
  /// descent along current arcs; returns its bottleneck, or 0 when s has no
  /// path left this phase. The path is an explicit arc stack, so a deep
  /// instance (a long path graph) costs heap, not call stack. A dead end
  /// retires its vertex for the phase (level -1, which no descent seeks) and
  /// advances its parent's current arc; a found path leaves every current
  /// arc in place.
  double augment_path() {
    path_.clear();
    int v = s_;
    while (v != t_) {
      const int end = g_.start[v + 1];
      int& i = it_[v]; // an arc position in [start[v], end]
      while (i < end &&
             (r_.cap[i] <= 0.0 || level_[g_.head[i]] != level_[v] - 1))
        ++i;
      if (i < end) {
        path_.push_back(i);
        v = g_.head[i];
        continue;
      }
      level_[v] = -1;
      if (path_.empty()) return 0.0;
      v = g_.head[g_.sister[path_.back()]]; // retreat to the arc's tail
      path_.pop_back();
      ++it_[v];
    }
    double pushed = std::numeric_limits<double>::infinity();
    for (int arc : path_) pushed = std::min(pushed, r_.cap[arc]);
    for (int arc : path_) {
      r_.cap[arc] -= pushed;
      r_.cap[g_.sister[arc]] += pushed;
    }
    return pushed;
  }

  detail::Residual& r_;
  const graph::ArcLayout& g_;
  int s_, t_;
  util::CancelToken cancel_;
  std::vector<int> level_;
  std::vector<int> it_; // current arc per vertex
  std::vector<int> queue_; // the BFS queue: every vertex enters it once
  std::vector<int> path_;  // arcs of the current descent, s first
};

} // namespace

namespace detail {

double dinic_augment(Residual& r, int s, int t, long long& ops,
                     const util::CancelToken& cancel) {
  return DinicSolver(r, s, t, cancel).augment(ops);
}

} // namespace detail

MaxFlowResult dinic(const graph::FlowNetwork& net,
                    const util::CancelToken& cancel) {
  detail::Residual r(net, cancel);
  MaxFlowResult result;
  result.flow_value = detail::dinic_augment(r, net.source(), net.sink(),
                                            result.operations, cancel);
  result.edge_flow = r.edge_flows(net);
  return result;
}

} // namespace aflow::flow
