#include "mincut/decomposition.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "core/batch_engine.hpp"

namespace aflow::mincut {

namespace {

std::vector<int> undirected_bfs_distance(const graph::FlowNetwork& net,
                                         int start) {
  constexpr int kInf = 1 << 29;
  const graph::Incidence inc = graph::incidence(net);
  std::vector<int> dist(net.num_vertices(), kInf);
  std::queue<int> q;
  dist[start] = 0;
  q.push(start);
  while (!q.empty()) {
    const int v = q.front();
    q.pop();
    for (int arc : inc.at(v)) {
      const auto& edge = net.edge(arc >> 1);
      const int u = (arc & 1) ? edge.from : edge.to;
      if (dist[u] > dist[v] + 1) {
        dist[u] = dist[v] + 1;
        q.push(u);
      }
    }
  }
  return dist;
}

/// One subproblem: the induced subgraph of a band, edges shared between
/// bands at capacity / share-count, plus the +-lambda terminal arcs on
/// duplicated vertices.
struct Subproblem {
  graph::FlowNetwork net{2, 0, 1};
  std::vector<int> to_local; // full vertex -> local id (-1 if absent)
  std::vector<int> to_full;  // local -> full vertex
};

Subproblem build_band_subproblem(const graph::FlowNetwork& g,
                                 const BandSplit& bands, int b,
                                 const std::vector<double>& lambda) {
  const std::uint64_t bit = std::uint64_t{1} << b;
  Subproblem sp;
  sp.to_local.assign(g.num_vertices(), -1);
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (!(bands.mask[v] & bit)) continue;
    sp.to_local[v] = static_cast<int>(sp.to_full.size());
    sp.to_full.push_back(v);
  }
  sp.net = graph::FlowNetwork(static_cast<int>(sp.to_full.size()),
                              sp.to_local[g.source()], sp.to_local[g.sink()]);

  for (const auto& e : g.edges()) {
    const int u = sp.to_local[e.from];
    const int v = sp.to_local[e.to];
    if (u < 0 || v < 0) continue;
    // An edge both of whose endpoints live in `shares` common bands appears
    // in each of those subproblems with 1/shares of its capacity, so the
    // copies sum back to the original capacity (the two-band special case is
    // the paper's half-capacity overlap rule).
    const int shares = std::popcount(bands.mask[e.from] & bands.mask[e.to]);
    const double cap = e.capacity / std::max(1, shares);
    if (cap > 0.0) sp.net.add_edge(u, v, cap);
  }

  // Lagrangian unary terms on duplicated vertices: lambda > 0 pushes the
  // lower-band ("M") copy toward the sink side and the upper copy toward
  // the source side.
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (!(bands.mask[v] & bit) || std::popcount(bands.mask[v]) < 2 ||
        v == g.source() || v == g.sink())
      continue;
    const double l = lambda[v];
    if (l == 0.0) continue;
    const int lv = sp.to_local[v];
    const bool lowest_band = std::countr_zero(bands.mask[v]) == b;
    const bool toward_sink = lowest_band ? (l > 0.0) : (l < 0.0);
    if (toward_sink)
      sp.net.add_edge(lv, sp.net.sink(), std::abs(l));
    else
      sp.net.add_edge(sp.net.source(), lv, std::abs(l));
  }
  return sp;
}

} // namespace

Split split_by_bfs(const graph::FlowNetwork& net, int overlap_rings) {
  if (overlap_rings < 1)
    throw std::invalid_argument("split_by_bfs: overlap_rings must be >= 1");
  const auto dist = undirected_bfs_distance(net, net.source());

  // Median reachable distance defines the frontier.
  std::vector<int> reachable;
  for (int v = 0; v < net.num_vertices(); ++v)
    if (dist[v] < (1 << 29)) reachable.push_back(dist[v]);
  std::nth_element(reachable.begin(), reachable.begin() + reachable.size() / 2,
                   reachable.end());
  const int frontier = reachable.empty() ? 0 : reachable[reachable.size() / 2];

  Split split;
  split.in_m.assign(net.num_vertices(), 0);
  split.in_n.assign(net.num_vertices(), 0);
  split.overlap.assign(net.num_vertices(), 0);
  for (int v = 0; v < net.num_vertices(); ++v) {
    const int d = dist[v];
    split.in_m[v] = d <= frontier;
    split.in_n[v] = d >= frontier - overlap_rings + 1; // unreachable -> N
  }
  // Terminals live in both regions.
  split.in_m[net.source()] = split.in_n[net.source()] = 1;
  split.in_m[net.sink()] = split.in_n[net.sink()] = 1;
  for (int v = 0; v < net.num_vertices(); ++v)
    split.overlap[v] = split.in_m[v] && split.in_n[v];
  return split;
}

BandSplit split_bands_by_bfs(const graph::FlowNetwork& net, int num_regions,
                             int overlap_rings) {
  if (num_regions < 2 || num_regions > 64)
    throw std::invalid_argument(
        "split_bands_by_bfs: num_regions must be in [2, 64]");
  if (overlap_rings < 1)
    throw std::invalid_argument(
        "split_bands_by_bfs: overlap_rings must be >= 1");
  constexpr int kInf = 1 << 29;
  const auto dist = undirected_bfs_distance(net, net.source());

  std::vector<int> reachable;
  for (int v = 0; v < net.num_vertices(); ++v)
    if (dist[v] < kInf) reachable.push_back(dist[v]);
  std::sort(reachable.begin(), reachable.end());

  // Band b covers distances (frontier[b-1], frontier[b]] at quantile
  // thresholds, extended `overlap_rings` rings downward into its
  // predecessor; the last band is unbounded above (unreachable vertices land
  // there, as in split_by_bfs).
  std::vector<int> frontier(static_cast<size_t>(num_regions) - 1, 0);
  for (int b = 0; b + 1 < num_regions; ++b) {
    if (!reachable.empty()) {
      const size_t q = std::min(reachable.size() - 1,
                                reachable.size() * (static_cast<size_t>(b) + 1) /
                                    static_cast<size_t>(num_regions));
      frontier[b] = reachable[q];
    }
  }

  BandSplit out;
  out.num_regions = num_regions;
  out.mask.assign(net.num_vertices(), 0);
  for (int v = 0; v < net.num_vertices(); ++v) {
    const int d = dist[v];
    for (int b = 0; b < num_regions; ++b) {
      const bool below_upper = b + 1 == num_regions || d <= frontier[b];
      const bool above_lower =
          b == 0 || d >= frontier[b - 1] - overlap_rings + 1;
      if (below_upper && above_lower) out.mask[v] |= std::uint64_t{1} << b;
    }
  }
  // Terminals live in every band.
  const std::uint64_t all =
      num_regions == 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << num_regions) - 1;
  out.mask[net.source()] = all;
  out.mask[net.sink()] = all;
  return out;
}

DecompositionResult solve_by_decomposition(const graph::FlowNetwork& net,
                                           const DecompositionOptions& options) {
  const int k = options.num_regions;
  const BandSplit bands =
      split_bands_by_bfs(net, k, options.overlap_rings);
  std::vector<double> lambda(net.num_vertices(), 0.0);
  const double cmax = net.max_capacity();

  DecompositionResult out;
  out.side.assign(net.num_vertices(), 0);
  out.region_vertices.assign(k, 0);
  for (int v = 0; v < net.num_vertices(); ++v)
    for (int b = 0; b < k; ++b)
      if (bands.mask[v] & (std::uint64_t{1} << b)) out.region_vertices[b]++;
  out.subproblem_vertices_m = out.region_vertices.front();
  out.subproblem_vertices_n = out.region_vertices.back();

  // Custom oracles run sequentially (they may carry shared warm-start
  // state); the default path fans each iteration's k subproblems through a
  // BatchEngine worker pool with a per-worker registry backend.
  const auto solve_all = [&](const std::vector<Subproblem>& sps) {
    std::vector<flow::MinCutResult> cuts(sps.size());
    if (options.oracle) {
      for (size_t b = 0; b < sps.size(); ++b)
        cuts[b] = options.oracle(sps[b].net);
      return cuts;
    }
    std::vector<graph::FlowNetwork> nets;
    nets.reserve(sps.size());
    for (const Subproblem& sp : sps) nets.push_back(sp.net);
    core::BatchOptions bo;
    bo.solver = options.solver;
    bo.num_threads = options.num_threads;
    const core::BatchReport rep = core::BatchEngine(bo).run(nets);
    for (size_t b = 0; b < sps.size(); ++b) {
      const core::InstanceOutcome& o = rep.outcomes[b];
      if (!o.ok)
        throw std::runtime_error("solve_by_decomposition: band " +
                                 std::to_string(b) + " failed: " + o.error);
      cuts[b] = flow::min_cut_from_flow(nets[b], o.result);
    }
    return cuts;
  };

  // side[b][v] is v's label in band b's solution (0 when absent).
  std::vector<std::vector<char>> side(
      static_cast<size_t>(k), std::vector<char>(net.num_vertices(), 0));
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    out.iterations = iter;
    std::vector<Subproblem> sps;
    sps.reserve(static_cast<size_t>(k));
    for (int b = 0; b < k; ++b)
      sps.push_back(build_band_subproblem(net, bands, b, lambda));
    const std::vector<flow::MinCutResult> cuts = solve_all(sps);

    double bound = 0.0;
    for (int b = 0; b < k; ++b) {
      bound += cuts[b].cut_value;
      auto& sb = side[static_cast<size_t>(b)];
      std::fill(sb.begin(), sb.end(), 0);
      for (int v = 0; v < net.num_vertices(); ++v)
        if (sps[b].to_local[v] >= 0)
          sb[v] = cuts[b].side[sps[b].to_local[v]];
    }
    out.bound_history.push_back(bound);

    // A duplicated vertex disagrees when its copies' labels are not all
    // equal; the subgradient compares the lowest and highest copies.
    out.disagreements = 0;
    for (int v = 0; v < net.num_vertices(); ++v) {
      if (std::popcount(bands.mask[v]) < 2) continue;
      const int lo = std::countr_zero(bands.mask[v]);
      const int hi = 63 - std::countl_zero(bands.mask[v]);
      bool mismatch = false;
      for (int b = lo; b <= hi; ++b)
        if ((bands.mask[v] >> b & 1) && side[b][v] != side[lo][v])
          mismatch = true;
      if (mismatch) out.disagreements++;
    }

    if (out.disagreements == 0) {
      out.agreed = true;
      break;
    }

    const double step = options.initial_step * cmax / std::sqrt(iter);
    for (int v = 0; v < net.num_vertices(); ++v) {
      if (std::popcount(bands.mask[v]) < 2) continue;
      const int lo = std::countr_zero(bands.mask[v]);
      const int hi = 63 - std::countl_zero(bands.mask[v]);
      lambda[v] += step * (static_cast<int>(side[lo][v]) - side[hi][v]);
    }
  }

  // Merge: every vertex takes the label of its lowest band (the earlier
  // band wins ties when the iteration cap was hit).
  for (int v = 0; v < net.num_vertices(); ++v) {
    const std::uint64_t mv = bands.mask[v];
    out.side[v] = mv == 0 ? 0 : side[static_cast<size_t>(
                                     std::countr_zero(mv))][v];
  }
  out.side[net.source()] = 1;
  out.side[net.sink()] = 0;

  for (const auto& e : net.edges())
    if (out.side[e.from] && !out.side[e.to]) out.cut_value += e.capacity;
  return out;
}

} // namespace aflow::mincut
