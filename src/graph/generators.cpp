#include "graph/generators.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

namespace aflow::graph {

namespace {

/// Picks one (row, col) cell of the 2^levels x 2^levels adjacency matrix by
/// recursive quadrant descent (the R-MAT process).
std::pair<int, int> rmat_cell(int levels, const RmatParams& p, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  int row = 0;
  int col = 0;
  for (int l = 0; l < levels; ++l) {
    const double u = uni(rng);
    row <<= 1;
    col <<= 1;
    if (u < p.a) {
      // top-left: nothing to add
    } else if (u < p.a + p.b) {
      col |= 1;
    } else if (u < p.a + p.b + p.c) {
      row |= 1;
    } else {
      row |= 1;
      col |= 1;
    }
  }
  return {row, col};
}

int uniform_capacity(int max_capacity, std::mt19937_64& rng) {
  std::uniform_int_distribution<int> dist(1, std::max(1, max_capacity));
  return dist(rng);
}

} // namespace

int checked_size(double size, const char* what) {
  if (!(size >= 0.0 &&
        size <= static_cast<double>(std::numeric_limits<int>::max()))) {
    std::ostringstream msg;
    msg << what << " " << std::fixed << std::setprecision(0) << size
        << " does not fit the int vertex/edge index";
    throw std::invalid_argument(msg.str());
  }
  return static_cast<int>(size);
}

FlowNetwork rmat(int num_vertices, int num_edges, const RmatParams& params,
                 std::uint64_t seed) {
  if (num_vertices < 2) throw std::invalid_argument("rmat: need >= 2 vertices");
  if (params.a + params.b + params.c > 1.0)
    throw std::invalid_argument("rmat: probabilities exceed 1");
  std::mt19937_64 rng(seed);

  int levels = 0;
  while ((std::int64_t{1} << levels) < num_vertices) ++levels;

  // Sample distinct non-loop edges within [0, num_vertices)^2.
  std::set<std::pair<int, int>> cells;
  const long long max_possible =
      static_cast<long long>(num_vertices) * (num_vertices - 1);
  const int target = static_cast<int>(
      std::min<long long>(num_edges, max_possible));
  long long attempts = 0;
  const long long attempt_limit = 200LL * std::max(target, 1) + 10000;
  while (static_cast<int>(cells.size()) < target && attempts < attempt_limit) {
    ++attempts;
    auto [r, c] = rmat_cell(levels, params, rng);
    if (r >= num_vertices || c >= num_vertices || r == c) continue;
    cells.insert({r, c});
  }

  // Degree bookkeeping for source/sink selection.
  std::vector<int> outdeg(num_vertices, 0), indeg(num_vertices, 0);
  for (const auto& [r, c] : cells) { outdeg[r]++; indeg[c]++; }
  const int source = static_cast<int>(
      std::max_element(outdeg.begin(), outdeg.end()) - outdeg.begin());

  // Build a provisional network to find vertices reachable from the source.
  FlowNetwork probe(num_vertices, source, source == 0 ? 1 : 0);
  for (const auto& [r, c] : cells) probe.add_edge(r, c, 1.0);
  const auto seen = reachable_from(probe, source);

  int sink = -1;
  int best_in = -1;
  for (int v = 0; v < num_vertices; ++v) {
    if (v == source || !seen[v]) continue;
    if (indeg[v] > best_in) { best_in = indeg[v]; sink = v; }
  }
  if (sink < 0) {
    // Source has no outgoing reach (degenerate sample): wire a short
    // deterministic path so the instance stays well-posed.
    sink = (source + 1) % num_vertices;
    cells.insert({source, sink});
  }

  FlowNetwork net(num_vertices, source, sink);
  for (const auto& [r, c] : cells)
    net.add_edge(r, c, uniform_capacity(params.max_capacity, rng));
  return net;
}

FlowNetwork rmat_dense(int num_vertices, std::uint64_t seed, double coeff) {
  const int m = checked_size(
      std::max(1.0, std::round(coeff * static_cast<double>(num_vertices) *
                               num_vertices)),
      "rmat_dense edge count");
  return rmat(num_vertices, m, RmatParams{}, seed);
}

FlowNetwork rmat_sparse(int num_vertices, std::uint64_t seed, double degree) {
  const int m = checked_size(std::max(1.0, std::round(degree * num_vertices)),
                             "rmat_sparse edge count");
  return rmat(num_vertices, m, RmatParams{}, seed);
}

FlowNetwork grid_cut_graph(int height, int width,
                           const std::vector<double>& terminal_source,
                           const std::vector<double>& terminal_sink,
                           double neighbor_capacity) {
  const std::int64_t area = std::int64_t{height} * width;
  const int pixels = checked_size(area + 2, "grid vertex count") - 2;
  // At most two terminal arcs and two lattice arc pairs per pixel.
  checked_size(6 * area, "grid edge count");
  if (terminal_source.size() != static_cast<size_t>(pixels) ||
      terminal_sink.size() != static_cast<size_t>(pixels))
    throw std::invalid_argument("grid_cut_graph: terminal array size mismatch");
  const int source = pixels;
  const int sink = pixels + 1;
  FlowNetwork net(pixels + 2, source, sink);
  auto pid = [width](int y, int x) { return y * width + x; };
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const int p = pid(y, x);
      if (terminal_source[p] > 0.0) net.add_edge(source, p, terminal_source[p]);
      if (terminal_sink[p] > 0.0) net.add_edge(p, sink, terminal_sink[p]);
      if (neighbor_capacity > 0.0) {
        if (x + 1 < width) {
          net.add_edge(p, pid(y, x + 1), neighbor_capacity);
          net.add_edge(pid(y, x + 1), p, neighbor_capacity);
        }
        if (y + 1 < height) {
          net.add_edge(p, pid(y + 1, x), neighbor_capacity);
          net.add_edge(pid(y + 1, x), p, neighbor_capacity);
        }
      }
    }
  }
  return net;
}

FlowNetwork layered_random(int layers, int width, int fanout, int max_capacity,
                           std::uint64_t seed) {
  if (layers < 1 || width < 1) throw std::invalid_argument("layered_random: bad shape");
  const int n =
      checked_size(2 + std::int64_t{layers} * width, "layered vertex count");
  // Source and sink arcs, plus at most min(fanout, width) arcs out of every
  // vertex of the first layers - 1 layers.
  checked_size(2 * std::int64_t{width} + std::int64_t{layers - 1} * width *
                                             std::clamp(fanout, 1, width),
               "layered edge count");
  std::mt19937_64 rng(seed);
  const int source = 0;
  const int sink = n - 1;
  auto vid = [&](int layer, int slot) { return 1 + layer * width + slot; };

  FlowNetwork net(n, source, sink);
  std::uniform_int_distribution<int> pick(0, width - 1);
  for (int slot = 0; slot < width; ++slot)
    net.add_edge(source, vid(0, slot), uniform_capacity(max_capacity, rng));
  for (int l = 0; l + 1 < layers; ++l) {
    for (int slot = 0; slot < width; ++slot) {
      std::set<int> targets;
      targets.insert(pick(rng)); // at least one forward edge
      for (int f = 1; f < fanout; ++f) targets.insert(pick(rng));
      for (int t : targets)
        net.add_edge(vid(l, slot), vid(l + 1, t),
                     uniform_capacity(max_capacity, rng));
    }
  }
  for (int slot = 0; slot < width; ++slot)
    net.add_edge(vid(layers - 1, slot), sink, uniform_capacity(max_capacity, rng));
  return net;
}

namespace {

/// Emits every gridflow edge in one deterministic order (s->left column per
/// row, right column->t per row, then per-cell right/down/up arcs row-major)
/// through `emit(from, to, cap)`. Both the in-memory generator and the
/// DIMACS writer run through this single walk, so the two renditions of a
/// (height, width, max_capacity, seed) instance are edge-for-edge identical.
template <typename Emit>
void gridflow_walk(int height, int width, int max_capacity, std::uint64_t seed,
                   Emit&& emit) {
  if (height < 1 || width < 1)
    throw std::invalid_argument("gridflow: bad shape");
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> cap(1, std::max(1, max_capacity));
  const std::int64_t pixels =
      static_cast<std::int64_t>(height) * static_cast<std::int64_t>(width);
  const std::int64_t source = pixels;
  const std::int64_t sink = pixels + 1;
  auto pid = [width](int y, int x) {
    return static_cast<std::int64_t>(y) * width + x;
  };
  for (int y = 0; y < height; ++y) emit(source, pid(y, 0), cap(rng));
  for (int y = 0; y < height; ++y) emit(pid(y, width - 1), sink, cap(rng));
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      if (x + 1 < width) emit(pid(y, x), pid(y, x + 1), cap(rng));
      if (y + 1 < height) emit(pid(y, x), pid(y + 1, x), cap(rng));
      if (y > 0) emit(pid(y, x), pid(y - 1, x), cap(rng));
    }
  }
}

std::int64_t gridflow_num_edges(int height, int width) {
  const std::int64_t h = height, w = width;
  // 2h terminal arcs + h(w-1) right + 2w(h-1) down/up.
  return 2 * h + h * (w - 1) + 2 * w * (h - 1);
}

} // namespace

FlowNetwork gridflow(int height, int width, int max_capacity,
                     std::uint64_t seed) {
  const int n = checked_size(std::int64_t{height} * width + 2,
                             "gridflow vertex count");
  checked_size(static_cast<double>(gridflow_num_edges(height, width)),
               "gridflow edge count");
  FlowNetwork net(n, n - 2, n - 1);
  gridflow_walk(height, width, max_capacity, seed,
                [&net](std::int64_t u, std::int64_t v, int c) {
                  net.add_edge(static_cast<int>(u), static_cast<int>(v),
                               static_cast<double>(c));
                });
  return net;
}

void write_gridflow_dimacs(std::ostream& out, int height, int width,
                           int max_capacity, std::uint64_t seed) {
  const std::int64_t pixels =
      static_cast<std::int64_t>(height) * static_cast<std::int64_t>(width);
  out << "c analogflow gridflow " << height << 'x' << width << " cap "
      << max_capacity << " seed " << seed << '\n';
  out << "p max " << pixels + 2 << ' ' << gridflow_num_edges(height, width)
      << '\n';
  out << "n " << pixels + 1 << " s\n";
  out << "n " << pixels + 2 << " t\n";
  gridflow_walk(height, width, max_capacity, seed,
                [&out](std::int64_t u, std::int64_t v, int c) {
                  out << "a " << u + 1 << ' ' << v + 1 << ' ' << c << '\n';
                });
}

FlowNetwork uniform_random(int num_vertices, int num_edges, int max_capacity,
                           std::uint64_t seed) {
  // The sampler draws distinct non-loop pairs: asking for more than exist
  // would spin through its whole attempt budget.
  const std::int64_t pairs = std::int64_t{num_vertices} * (num_vertices - 1);
  if (num_edges > pairs)
    throw std::invalid_argument(
        "uniform: " + std::to_string(num_edges) + " edges exceed the " +
        std::to_string(pairs) + " distinct non-loop vertex pairs");
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, num_vertices - 1);
  std::set<std::pair<int, int>> cells;
  const int source = 0;
  const int sink = num_vertices - 1;
  long long attempts = 0;
  while (static_cast<int>(cells.size()) < num_edges && attempts < 100LL * num_edges + 1000) {
    ++attempts;
    const int u = pick(rng);
    const int v = pick(rng);
    if (u == v) continue;
    cells.insert({u, v});
  }
  // Guarantee at least one arc out of the source and one into the sink.
  cells.insert({source, sink});
  FlowNetwork net(num_vertices, source, sink);
  for (const auto& [u, v] : cells)
    net.add_edge(u, v, uniform_capacity(max_capacity, rng));
  return net;
}

} // namespace aflow::graph
