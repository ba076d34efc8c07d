// FIFO push-relabel (Goldberg-Tarjan) with the heuristics that make it the
// practical CPU reference the paper benchmarks against:
//   - exact global relabeling (BFS distances to the sink), at the start of
//     the pass and again whenever the relabel work since the last one
//     exceeds a quarter of the edge count (refresh_heights);
//   - the gap heuristic (when a height level empties, every vertex above it
//     is lifted past n, cutting off dead regions);
//   - parking: a vertex that reaches height n can never reach the sink
//     again, so phase 1 stops discharging it, and phase 2 walks its excess
//     back to the source along flow-carrying arcs.
//
// The solver operates on an externally owned residual and starts from
// whatever feasible flow it carries: a feasible flow is a preflow with no
// excess, so the standard initialisation (saturate the source-adjacent
// residual arcs, discharge) is valid from any carried flow. Every caller
// runs the same pass: the cold entry (flow::push_relabel) on a fresh
// zero-flow residual, the delta path (flow/delta.hpp) on a repaired
// carry-over residual, and the sharded solver (core/sharded_solver.hpp) on
// its stitched flow.
#include <algorithm>
#include <queue>

#include "flow/maxflow.hpp"
#include "flow/residual.hpp"

namespace aflow::flow {

namespace {

class PushRelabelSolver {
 public:
  PushRelabelSolver(detail::Residual& r, int s, int t,
                    const util::CancelToken& cancel, SolveMetrics* metrics)
      : r_(r), g_(*r.layout), s_(r.vertex(s)), t_(r.vertex(t)),
        cancel_(cancel), metrics_(metrics), n_(r.n),
        refresh_threshold_(static_cast<long long>(r.cap.size()) / 8),
        excess_eps_(1e-11 * r.capacity_scale()), height_(n_, 0),
        excess_(n_, 0.0), current_arc_(g_.start.begin(), g_.start.end() - 1),
        height_count_(2 * static_cast<size_t>(n_) + 1, 0), dist_(n_),
        bfs_(n_), mark_(n_, 0), mark_pos_(n_, -1), cur_(g_.in_begin) {}

  /// The pass, from the feasible flow currently in `r_`: exact global
  /// relabel, flood of the source arcs, FIFO discharge that parks at n,
  /// then the phase-2 return of parked excess. Returns pushes + relabels.
  long long augment() {
    refresh_heights(); // from all-zero heights: the opening global relabel

    // Saturate the source-adjacent arcs with residual slack — except
    // those into vertices the initial global relabel put at height n (no
    // residual path to the sink). Heights never decrease and stay a
    // valid labeling, so such a vertex can never reach the sink later
    // either: flow pushed there could only round-trip back to s.
    for (int arc = g_.start[s_]; arc < g_.start[s_ + 1]; ++arc) {
      if (r_.cap[arc] <= 0.0 || height_[g_.head[arc]] >= n_) continue;
      inject(arc);
      if (metrics_) metrics_->injected_excess_arcs++;
    }

    // Phase 1: route as much excess as possible to the sink. A vertex
    // already at height >= n when popped (parked, lifted by the gap
    // heuristic or a refresh, or cut off by the initial relabel) can never
    // reach the sink again, so its excess is left for the return-to-source
    // sweep below. Neither terminal is ever queued.
    while (!active_.empty()) {
      maybe_check_cancel();
      const int v = active_.front();
      active_.pop();
      if (height_[v] < n_) discharge(v);
    }
    if (!return_excess_to_source()) {
      // Genuine dead end (dust capacity bottlenecks): finish with the
      // legacy discharge walk, which returns excess by relabeling past n.
      // Slow but unconditionally correct — and counted, so a stream that
      // silently engages it is visible in telemetry. The walk NEEDS the
      // climb past n, so phase 1's park-at-n rule is lifted for it.
      parking_only_ = false;
      if (metrics_) metrics_->phase2_fallbacks++;
      for (int v = 0; v < n_; ++v)
        if (v != s_ && v != t_ && excess_[v] > 0.0) active_.push(v);
      while (!active_.empty()) {
        maybe_check_cancel();
        const int v = active_.front();
        active_.pop();
        discharge(v);
      }
    }
    return pushes_ + relabels_;
  }

 private:
  /// Discharge pops run ~millions/s; amortise the steady_clock read behind
  /// the deadline check to one in 1024 pops.
  void maybe_check_cancel() {
    if ((++pops_ & 1023) == 0) cancel_.check();
  }

  /// Phase 2: every parked excess travels back to the source by retracing
  /// flow-carrying in-arcs (an in-arc's capacity is exactly the flow on its
  /// edge). Flow decomposition of the preflow guarantees each
  /// excess unit lies on an s -> v flow path, so the backward walk reaches
  /// s — after cancelling any flow cycles it wanders into, each of which
  /// zeroes at least one arc, so the whole phase terminates. Walking flow
  /// arcs directly (instead of BFS over the full residual per push) keeps
  /// the return cost proportional to the flow being unwound.
  ///
  /// The per-vertex in-arc cursors never need rewinding: every phase-2
  /// mutation (cycle cancellation or an unwind to s) only *decreases*
  /// odd-arc capacity, so an arc a cursor skipped as empty stays empty.
  /// A walk that runs out of flow-carrying in-arcs is therefore a genuine
  /// dead end (float-dust inflow); it returns false and the caller
  /// finishes with the legacy discharge walk.
  bool return_excess_to_source() {
    const double eps = excess_eps_;
    std::vector<int> walk_v, walk_arc;
    int stamp = 0;
    for (int v0 = 0; v0 < n_; ++v0) {
      if (v0 == s_ || v0 == t_) continue;
      while (excess_[v0] > eps) {
        maybe_check_cancel();
        ++stamp;
        walk_v.assign(1, v0);
        walk_arc.clear();
        mark_[v0] = stamp;
        mark_pos_[v0] = 0;
        bool routed = false;
        while (!routed) {
          const int x = walk_v.back();
          const int end = g_.start[x + 1];
          int& c = cur_[x]; // an in-arc position in [in_begin[x], end]
          while (c < end && r_.cap[c] <= eps) c++;
          if (c == end) return false;
          const int arc = c;
          const int u = g_.head[arc];
          if (u == s_) {
            // s -> ... -> v0 flow path found: unwind the excess along it.
            double amount = excess_[v0];
            for (int a : walk_arc) amount = std::min(amount, r_.cap[a]);
            amount = std::min(amount, r_.cap[arc]);
            for (int a : walk_arc) {
              r_.cap[a] -= amount;
              r_.cap[g_.sister[a]] += amount;
            }
            r_.cap[arc] -= amount;
            r_.cap[g_.sister[arc]] += amount;
            excess_[v0] -= amount;
            pushes_++;
            if (metrics_) metrics_->returned_excess_walks++;
            routed = true;
          } else if (mark_[u] == stamp) {
            // Flow cycle u -> ... -> x -> u: cancel its bottleneck (zeroes
            // at least one arc) and resume the walk from u.
            const int p = mark_pos_[u];
            double amount = r_.cap[arc];
            for (size_t i = p; i < walk_arc.size(); ++i)
              amount = std::min(amount, r_.cap[walk_arc[i]]);
            for (size_t i = p; i < walk_arc.size(); ++i) {
              r_.cap[walk_arc[i]] -= amount;
              r_.cap[g_.sister[walk_arc[i]]] += amount;
            }
            r_.cap[arc] -= amount;
            r_.cap[g_.sister[arc]] += amount;
            for (size_t i = p + 1; i < walk_v.size(); ++i) mark_[walk_v[i]] = 0;
            walk_v.resize(p + 1);
            walk_arc.resize(p);
            pushes_++;
          } else {
            mark_[u] = stamp;
            mark_pos_[u] = static_cast<int>(walk_v.size());
            walk_v.push_back(u);
            walk_arc.push_back(arc);
          }
        }
      }
      excess_[v0] = std::max(excess_[v0], 0.0);
    }
    return true;
  }

  /// Exact relabel: recomputes BFS distances to the sink in the residual
  /// graph (unreachable vertices, and the source, which the flood pins,
  /// sit at n) and lifts every vertex to max(current, exact). The max of
  /// two valid labelings is valid (per residual arc, take whichever
  /// labeling attains the max at the tail), so heights stay valid and
  /// non-decreasing — and every vertex cut off from the sink jumps
  /// straight to n in one O(m) pass instead of relabeling toward it one
  /// step (and one full arc scan) at a time. From all-zero heights this is
  /// the opening global relabel.
  void refresh_heights() {
    std::fill(dist_.begin(), dist_.end(), n_);
    dist_[t_] = 0;
    size_t head = 0, tail = 0;
    bfs_[tail++] = t_;
    while (head < tail) {
      const int v = bfs_[head++];
      for (int arc = g_.start[v]; arc < g_.start[v + 1]; ++arc) {
        // Arc (v -> u) in adj; we need residual capacity on (u -> v).
        const int u = g_.head[arc];
        if (dist_[u] == n_ && u != s_ && r_.cap[g_.sister[arc]] > 0.0) {
          dist_[u] = dist_[v] + 1;
          bfs_[tail++] = u;
        }
      }
    }
    std::fill(height_count_.begin(), height_count_.end(), 0);
    for (int v = 0; v < n_; ++v) {
      height_[v] = std::max(height_[v], dist_[v]);
      if (height_[v] <= 2 * n_) height_count_[height_[v]]++;
    }
    // Raised heights can re-admit arcs an advanced cursor already skipped.
    std::copy(g_.start.begin(), g_.start.end() - 1, current_arc_.begin());
    relabel_work_ = 0;
  }

  /// Saturates source arc `arc`: the flood's injection primitive.
  void inject(int arc) {
    const int u = g_.head[arc];
    const double amount = r_.cap[arc];
    r_.cap[arc] = 0.0;
    r_.cap[g_.sister[arc]] += amount;
    const bool was_inactive = excess_[u] == 0.0;
    excess_[u] += amount;
    if (was_inactive && u != s_ && u != t_) active_.push(u);
    pushes_++;
  }

  void push(int v, int arc) {
    const double delta = std::min(excess_[v], r_.cap[arc]);
    if (delta <= 0.0) return;
    const int u = g_.head[arc];
    r_.cap[arc] -= delta;
    r_.cap[g_.sister[arc]] += delta;
    excess_[v] -= delta;
    const bool was_inactive = excess_[u] == 0.0;
    excess_[u] += delta;
    if (was_inactive && u != t_ && u != s_) active_.push(u);
    pushes_++;
  }

  void relabel(int v) {
    const int old_height = height_[v];
    int min_height = 2 * n_;
    for (int arc = g_.start[v]; arc < g_.start[v + 1]; ++arc)
      if (r_.cap[arc] > 0.0) min_height = std::min(min_height, height_[g_.head[arc]]);
    height_[v] = min_height + 1;
    relabels_++;
    relabel_work_ += g_.start[v + 1] - g_.start[v] + 1;

    height_count_[old_height]--;
    if (height_[v] <= 2 * n_) height_count_[height_[v]]++;

    // Gap heuristic: no vertex left at `old_height` cuts off everything
    // above it (those vertices can never reach the sink again).
    if (height_count_[old_height] == 0 && old_height < n_) {
      for (int u = 0; u < n_; ++u) {
        if (u != s_ && height_[u] > old_height && height_[u] < n_) {
          height_count_[height_[u]]--;
          height_[u] = n_ + 1;
          height_count_[height_[u]]++;
        }
      }
    }
  }

  void discharge(int v) {
    while (excess_[v] > 0.0) {
      // Phase 1 parks a vertex the moment it reaches n: it can never reach
      // the sink again, and the phase-2 walk returns its excess far
      // cheaper than relabeling it toward 2n would. (The legacy fallback
      // clears parking_only_ — its whole mechanism is that climb.)
      if (parking_only_ && height_[v] >= n_) break;
      if (current_arc_[v] == g_.start[v + 1]) {
        relabel(v);
        current_arc_[v] = g_.start[v];
        if (parking_only_ && relabel_work_ > refresh_threshold_)
          refresh_heights();
        // Defensive bound only: heights are capped at 2n+1 by relabel's
        // scan, so a vertex above 2n has walked its excess back to s.
        if (height_[v] > 2 * n_) break;
        continue;
      }
      const int arc = current_arc_[v];
      const int u = g_.head[arc];
      if (r_.cap[arc] > 0.0 && height_[v] == height_[u] + 1)
        push(v, arc);
      else
        current_arc_[v]++;
    }
  }

  detail::Residual& r_;
  const graph::ArcLayout& g_;
  int s_, t_; // layout positions
  util::CancelToken cancel_;
  SolveMetrics* metrics_;
  int n_;
  bool parking_only_ = true; // phase 1: park at n, refresh heights
  // Relabel arc-scan work since the last refresh, and the work that
  // triggers the next one: a quarter of the edge count (cap holds two arcs
  // per edge), which keeps each O(m) refresh amortised against the
  // relabeling it replaces.
  long long relabel_work_ = 0;
  long long refresh_threshold_;
  // Capacity-relative dust threshold: at capacity scales >= 1e9 the double
  // rounding residue of carried flows exceeds any absolute epsilon, so
  // every dust comparison in the pass scales with the largest residual
  // capacity (clamped so small instances keep the historical absolute
  // thresholds). Well below check_flow's 1e-9 conservation tolerance at
  // scale 1, well above double rounding dust at the capacity scale in play.
  double excess_eps_;
  long long pops_ = 0;
  std::vector<int> height_;
  std::vector<double> excess_;
  std::vector<int> current_arc_; // arc positions
  std::vector<int> height_count_;
  std::vector<int> dist_, bfs_; // refresh_heights: distances, BFS queue
  // Phase-2 walk state: per-vertex visit stamp, position on the current
  // walk, and in-arc cursor (an arc position).
  std::vector<int> mark_, mark_pos_, cur_;
  std::queue<int> active_;
  long long pushes_ = 0;
  long long relabels_ = 0;
};

} // namespace

namespace detail {

long long push_relabel_augment(Residual& r, int s, int t,
                               const util::CancelToken& cancel,
                               SolveMetrics* metrics) {
  return PushRelabelSolver(r, s, t, cancel, metrics).augment();
}

} // namespace detail

MaxFlowResult push_relabel(const graph::FlowNetwork& net,
                           const util::CancelToken& cancel) {
  detail::Residual r(net, cancel);
  MaxFlowResult result;
  result.operations = detail::push_relabel_augment(
      r, net.source(), net.sink(), cancel, &result.metrics);
  result.flow_value = r.flow_value_at(net, net.source());
  result.edge_flow = r.edge_flows(net);
  return result;
}

} // namespace aflow::flow
