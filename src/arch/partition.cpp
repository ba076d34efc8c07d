#include "arch/partition.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <map>
#include <numeric>
#include <random>
#include <stdexcept>

namespace aflow::arch {

namespace {

/// Classic FM pass machinery on a compact adjacency.
class FmEngine {
 public:
  FmEngine(int n, const std::vector<std::pair<int, int>>& edges,
           double balance_tolerance, std::uint64_t seed)
      : n_(n), adj_(n), side_(n, 0) {
    for (const auto& [u, v] : edges) {
      if (u == v) continue;
      adj_[u].push_back(v);
      adj_[v].push_back(u);
    }
    // Allow at least one vertex of slack beyond a perfect split, otherwise
    // a balanced-but-bad start can never escape (every move passes through
    // an (n/2 + 1, n/2 - 1) state).
    max_side_ = static_cast<int>(
        std::ceil(((n + 1) / 2) * (1.0 + balance_tolerance)));
    max_side_ = std::min(std::max(max_side_, n / 2 + 1), n);

    // Random balanced initial assignment.
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    for (int i = 0; i < n; ++i) side_[order[i]] = i % 2;
  }

  int run_passes(int max_passes) {
    int passes = 0;
    while (passes < max_passes) {
      ++passes;
      if (!pass()) break;
    }
    return passes;
  }

  long long cut() const {
    long long c = 0;
    for (int v = 0; v < n_; ++v)
      for (int u : adj_[v])
        if (u > v && side_[u] != side_[v]) ++c;
    return c;
  }

  const std::vector<char>& side() const { return side_; }

 private:
  int gain(int v) const {
    int g = 0;
    for (int u : adj_[v]) g += (side_[u] != side_[v]) ? 1 : -1;
    return g;
  }

  /// One FM pass: tentatively move every vertex once (best-gain first,
  /// balance permitting), then roll back to the best prefix.
  bool pass() {
    std::vector<char> locked(n_, 0);
    std::vector<int> gains(n_);
    for (int v = 0; v < n_; ++v) gains[v] = gain(v);
    std::array<int, 2> count{0, 0};
    for (int v = 0; v < n_; ++v) count[side_[v]]++;

    std::vector<int> moved;
    moved.reserve(n_);
    long long best_delta = 0;
    long long delta = 0;
    int best_prefix = 0;

    for (int step = 0; step < n_; ++step) {
      // Highest-gain movable vertex whose move keeps balance.
      int pick = -1;
      for (int v = 0; v < n_; ++v) {
        if (locked[v]) continue;
        if (count[1 - side_[v]] + 1 > max_side_) continue;
        if (pick < 0 || gains[v] > gains[pick]) pick = v;
      }
      if (pick < 0) break;

      delta += gains[pick];
      count[side_[pick]]--;
      side_[pick] = 1 - side_[pick];
      count[side_[pick]]++;
      locked[pick] = 1;
      moved.push_back(pick);
      // Incremental gain update for neighbours: if u now shares pick's
      // side, the edge (u, pick) just left the cut, so moving u would put
      // it back (-2); otherwise the edge entered the cut (+2).
      for (int u : adj_[pick]) {
        if (locked[u]) continue;
        gains[u] += (side_[u] == side_[pick]) ? -2 : 2;
      }
      gains[pick] = -gains[pick];

      if (delta > best_delta) {
        best_delta = delta;
        best_prefix = static_cast<int>(moved.size());
      }
    }

    // Roll back moves beyond the best prefix.
    for (int i = static_cast<int>(moved.size()) - 1; i >= best_prefix; --i)
      side_[moved[i]] = 1 - side_[moved[i]];
    return best_delta > 0;
  }

  int n_;
  std::vector<std::vector<int>> adj_;
  std::vector<char> side_;
  int max_side_ = 0;
};

} // namespace

BipartitionResult fm_bipartition(int num_vertices,
                                 const std::vector<std::pair<int, int>>& edges,
                                 double balance_tolerance, std::uint64_t seed) {
  if (num_vertices < 0) throw std::invalid_argument("fm_bipartition: bad size");
  BipartitionResult result;
  if (num_vertices == 0) return result;
  FmEngine engine(num_vertices, edges, balance_tolerance, seed);
  result.passes = engine.run_passes(12);
  result.side = engine.side();
  result.cut_edges = engine.cut();
  return result;
}

PartitionResult partition_into_islands(const graph::FlowNetwork& net,
                                       int capacity, std::uint64_t seed) {
  if (capacity < 1)
    throw std::invalid_argument("partition_into_islands: capacity must be >= 1");
  PartitionResult out;
  out.part.assign(net.num_vertices(), -1);

  // Work queue of vertex groups to split.
  std::vector<std::vector<int>> groups;
  {
    std::vector<int> all(net.num_vertices());
    std::iota(all.begin(), all.end(), 0);
    groups.push_back(std::move(all));
  }

  std::uint64_t salt = 0;
  while (!groups.empty()) {
    std::vector<int> group = std::move(groups.back());
    groups.pop_back();
    if (static_cast<int>(group.size()) <= capacity) {
      for (int v : group) out.part[v] = out.num_parts;
      out.num_parts++;
      continue;
    }
    // Local edge list within the group.
    std::vector<int> local(net.num_vertices(), -1);
    for (size_t i = 0; i < group.size(); ++i) local[group[i]] = static_cast<int>(i);
    std::vector<std::pair<int, int>> edges;
    for (const auto& e : net.edges()) {
      const int u = local[e.from];
      const int v = local[e.to];
      if (u >= 0 && v >= 0) edges.emplace_back(u, v);
    }
    const auto bi = fm_bipartition(static_cast<int>(group.size()), edges, 0.1,
                                   seed + (++salt));
    std::vector<int> left, right;
    for (size_t i = 0; i < group.size(); ++i)
      (bi.side[i] ? right : left).push_back(group[i]);
    // Degenerate split (all on one side) cannot happen with the balance
    // bound, but guard against it to guarantee termination.
    if (left.empty() || right.empty()) {
      const size_t half = group.size() / 2;
      left.assign(group.begin(), group.begin() + half);
      right.assign(group.begin() + half, group.end());
    }
    groups.push_back(std::move(left));
    groups.push_back(std::move(right));
  }

  for (const auto& e : net.edges())
    if (out.part[e.from] != out.part[e.to]) out.cut_edges++;
  return out;
}

namespace {

/// BFS order over a flat undirected adjacency (CSR offsets + neighbour
/// array — no per-vertex vectors, since the first bisection of a huge
/// instance runs through here), started from local vertex 0, with further
/// components appended in local order. The prefix of this order makes a
/// contiguous-ish split at any target size.
std::vector<int> bfs_order(int size, const std::vector<std::int64_t>& adj_start,
                           const std::vector<int>& adj) {
  std::vector<char> seen(static_cast<size_t>(size), 0);
  std::vector<int> order;
  order.reserve(static_cast<size_t>(size));
  for (int start = 0; start < size; ++start) {
    if (seen[start]) continue;
    seen[start] = 1;
    order.push_back(start);
    for (size_t head = order.size() - 1; head < order.size(); ++head) {
      const int x = order[head];
      for (std::int64_t a = adj_start[static_cast<size_t>(x)];
           a < adj_start[static_cast<size_t>(x) + 1]; ++a) {
        const int u = adj[static_cast<size_t>(a)];
        if (seen[u]) continue;
        seen[u] = 1;
        order.push_back(u);
      }
    }
  }
  return order;
}

} // namespace

RegionPartition partition_regions(const graph::FlowNetwork& net,
                                  const RegionPartitionOptions& opts) {
  const int n = net.num_vertices();
  if (opts.regions < 1)
    throw std::invalid_argument("partition_regions: need at least one region");
  if (opts.regions > n)
    throw std::invalid_argument(
        "partition_regions: more regions than vertices");

  RegionPartition out;
  out.region.assign(static_cast<size_t>(n), -1);

  struct Group {
    std::vector<int> verts;
    int parts;
  };
  std::vector<Group> stack;
  {
    std::vector<int> all(static_cast<size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    stack.push_back({std::move(all), opts.regions});
  }

  std::vector<int> local(static_cast<size_t>(n), -1);
  std::uint64_t salt = 0;
  while (!stack.empty()) {
    Group g = std::move(stack.back());
    stack.pop_back();
    if (g.parts == 1) {
      for (int v : g.verts) out.region[static_cast<size_t>(v)] =
          out.num_regions;
      out.num_regions++;
      continue;
    }
    const int size = static_cast<int>(g.verts.size());
    const int k1 = g.parts / 2;
    const int k2 = g.parts - k1;
    // Proportional target, clamped so both halves can still host one vertex
    // per remaining region.
    int target = static_cast<int>(
        (static_cast<std::int64_t>(size) * k1 + g.parts / 2) / g.parts);
    target = std::clamp(target, k1, size - k2);

    for (int i = 0; i < size; ++i) local[g.verts[static_cast<size_t>(i)]] = i;
    std::vector<std::pair<int, int>> edges;
    for (const graph::Edge& e : net.edges()) {
      const int u = local[static_cast<size_t>(e.from)];
      const int v = local[static_cast<size_t>(e.to)];
      if (u >= 0 && v >= 0 && u != v) edges.emplace_back(u, v);
    }

    std::vector<char> in_left(static_cast<size_t>(size), 0);
    bool split_ok = false;
    if (k1 == k2 && size <= opts.fm_threshold) {
      const auto bi = fm_bipartition(size, edges, opts.balance_tolerance,
                                     opts.seed + (++salt));
      int left = 0;
      for (int i = 0; i < size; ++i)
        if (bi.side[static_cast<size_t>(i)] == 0) {
          in_left[static_cast<size_t>(i)] = 1;
          ++left;
        }
      split_ok = left >= k1 && size - left >= k2;
    }
    if (!split_ok) {
      std::vector<std::int64_t> adj_start(static_cast<size_t>(size) + 1, 0);
      for (const auto& [u, v] : edges) {
        ++adj_start[static_cast<size_t>(u) + 1];
        ++adj_start[static_cast<size_t>(v) + 1];
      }
      for (int i = 0; i < size; ++i)
        adj_start[static_cast<size_t>(i) + 1] +=
            adj_start[static_cast<size_t>(i)];
      std::vector<int> adj(2 * edges.size());
      std::vector<std::int64_t> cursor(adj_start.begin(), adj_start.end() - 1);
      for (const auto& [u, v] : edges) {
        adj[static_cast<size_t>(cursor[static_cast<size_t>(u)]++)] = v;
        adj[static_cast<size_t>(cursor[static_cast<size_t>(v)]++)] = u;
      }
      const std::vector<int> order = bfs_order(size, adj_start, adj);
      std::fill(in_left.begin(), in_left.end(), 0);
      for (int i = 0; i < target; ++i)
        in_left[static_cast<size_t>(order[static_cast<size_t>(i)])] = 1;
    }

    Group left{{}, k1}, right{{}, k2};
    for (int i = 0; i < size; ++i)
      (in_left[static_cast<size_t>(i)] ? left.verts : right.verts)
          .push_back(g.verts[static_cast<size_t>(i)]);
    for (int v : g.verts) local[static_cast<size_t>(v)] = -1;
    // Right first so the left half is processed (and numbered) first.
    stack.push_back(std::move(right));
    stack.push_back(std::move(left));
  }

  out.vertices.resize(static_cast<size_t>(out.num_regions));
  for (int v = 0; v < n; ++v)
    out.vertices[static_cast<size_t>(out.region[static_cast<size_t>(v)])]
        .push_back(v);

  std::vector<char> on_boundary(static_cast<size_t>(n), 0);
  for (int e = 0; e < net.num_edges(); ++e) {
    const auto [u, v, capacity] = net.edge(e);
    if (out.region[static_cast<size_t>(u)] ==
        out.region[static_cast<size_t>(v)])
      continue;
    out.cut_arcs.push_back(e);
    out.cut_capacity += capacity;
    on_boundary[static_cast<size_t>(u)] = 1;
    on_boundary[static_cast<size_t>(v)] = 1;
  }
  out.boundary.resize(static_cast<size_t>(out.num_regions));
  for (int v = 0; v < n; ++v)
    if (on_boundary[static_cast<size_t>(v)])
      out.boundary[static_cast<size_t>(out.region[static_cast<size_t>(v)])]
          .push_back(v);
  return out;
}

} // namespace aflow::arch
