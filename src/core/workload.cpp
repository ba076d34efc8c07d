#include "core/workload.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>

#include "graph/dimacs.hpp"
#include "graph/generators.hpp"
#include "util/args.hpp"

namespace aflow::core {

namespace fs = std::filesystem;

namespace {

struct SourceSpec {
  std::string kind;
  std::map<std::string, double> params;

  double get(const std::string& key, double fallback) const {
    const auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  }
  /// Integer parameters must be integral: silently truncating (side=7.9
  /// becoming 7) would hand the caller a different instance than asked for.
  int get_int(const std::string& key, int fallback) const {
    const auto it = params.find(key);
    if (it == params.end()) return fallback;
    const double v = it->second;
    if (!(std::floor(v) == v) || v < static_cast<double>(INT_MIN) ||
        v > static_cast<double>(INT_MAX))
      throw std::invalid_argument(
          "workload '" + kind + "': parameter '" + key +
          "' must be an integer, got " + std::to_string(v));
    return static_cast<int>(v);
  }

  /// Typos must not silently fall back to defaults: every key has to be one
  /// the kind actually reads. `count`, `seed`, and `vary` apply to every
  /// generator kind.
  void require_keys(std::initializer_list<const char*> allowed) const {
    for (const auto& [key, unused] : params) {
      bool known = key == "count" || key == "seed" || key == "vary";
      for (const char* a : allowed) known = known || key == a;
      if (!known)
        throw std::invalid_argument("unknown key '" + key + "' for workload '" +
                                    kind + "'");
    }
  }
};

int positive(int value, const char* what) {
  if (value <= 0)
    throw std::invalid_argument(std::string(what) +
                                " must be positive, got " +
                                std::to_string(value));
  return value;
}

/// Strips leading/trailing whitespace, so "grid: side = 8, cap = 16" and
/// shell-wrapped specs with stray spaces parse the same as the tight form.
std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t");
  return s.substr(begin, end - begin + 1);
}

SourceSpec parse_source(const std::string& text) {
  SourceSpec spec;
  const auto colon = text.find(':');
  spec.kind = trim(text.substr(0, colon));
  if (colon == std::string::npos) return spec;

  for (const std::string& item : util::split(text.substr(colon + 1), ',')) {
    if (trim(item).empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("bad spec item '" + trim(item) + "' in '" +
                                  text + "' (expected key=value)");
    const std::string key = trim(item.substr(0, eq));
    const std::string value = trim(item.substr(eq + 1));
    if (key.empty())
      throw std::invalid_argument("empty key in spec item '" + trim(item) +
                                  "' in '" + text + "'");
    const std::optional<double> parsed = util::parse_number<double>(value);
    if (!parsed)
      throw std::invalid_argument("bad numeric value in spec item '" +
                                  trim(item) + "'");
    spec.params[key] = *parsed;
  }
  return spec;
}

/// A segmentation-style grid instance: random terminal capacities in
/// [0, cap] per pixel, constant lattice capacity.
graph::FlowNetwork random_grid(int height, int width, double cap,
                               double neighbor, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, cap);
  // Checked before the terminal arrays are sized; grid_cut_graph checks the
  // vertex and edge counts.
  const int pixels =
      graph::checked_size(std::int64_t{height} * width, "grid pixel count");
  std::vector<double> to_source(pixels), to_sink(pixels);
  for (int p = 0; p < pixels; ++p) {
    // Integral capacities, as everywhere else in the repo's generators.
    to_source[p] = std::floor(u(rng));
    to_sink[p] = std::floor(u(rng));
  }
  return graph::grid_cut_graph(height, width, to_source, to_sink, neighbor);
}

std::vector<graph::FlowNetwork> expand(const SourceSpec& spec) {
  const int count = positive(spec.get_int("count", 1), "count");
  const auto seed0 = static_cast<std::uint64_t>(spec.get("seed", 1));

  std::vector<graph::FlowNetwork> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = seed0 + static_cast<std::uint64_t>(i);
    if (spec.kind == "grid") {
      spec.require_keys({"side", "height", "width", "cap", "neighbor"});
      const int side = spec.get_int("side", 8);
      out.push_back(
          random_grid(positive(spec.get_int("height", side), "height"),
                      positive(spec.get_int("width", side), "width"),
                      spec.get("cap", 16.0), spec.get("neighbor", 4.0), seed));
    } else if (spec.kind == "rmat_sparse") {
      spec.require_keys({"n", "degree"});
      out.push_back(graph::rmat_sparse(positive(spec.get_int("n", 500), "n"),
                                       seed, spec.get("degree", 8.0)));
    } else if (spec.kind == "rmat_dense") {
      spec.require_keys({"n"});
      out.push_back(
          graph::rmat_dense(positive(spec.get_int("n", 480), "n"), seed));
    } else if (spec.kind == "layered") {
      spec.require_keys({"layers", "width", "fanout", "cap"});
      out.push_back(graph::layered_random(
          positive(spec.get_int("layers", 6), "layers"),
          positive(spec.get_int("width", 16), "width"),
          positive(spec.get_int("fanout", 4), "fanout"),
          positive(spec.get_int("cap", 32), "cap"), seed));
    } else if (spec.kind == "uniform") {
      spec.require_keys({"n", "m", "cap"});
      out.push_back(
          graph::uniform_random(positive(spec.get_int("n", 500), "n"),
                                positive(spec.get_int("m", 2500), "m"),
                                positive(spec.get_int("cap", 64), "cap"), seed));
    } else if (spec.kind == "gridflow") {
      spec.require_keys({"height", "width", "cap"});
      out.push_back(graph::gridflow(
          positive(spec.get_int("height", 32), "height"),
          positive(spec.get_int("width", 32), "width"),
          positive(spec.get_int("cap", 64), "cap"), seed));
    } else {
      throw std::invalid_argument(
          "unknown workload kind '" + spec.kind +
          "' (known: grid, rmat_sparse, rmat_dense, layered, uniform, "
          "gridflow; or pass a DIMACS file / directory path)");
    }
  }

  // vary=K: reconfiguration batches — replace each generated instance by K
  // same-topology capacity variants.
  const int vary = positive(spec.get_int("vary", 1), "vary");
  if (vary > 1) {
    std::vector<graph::FlowNetwork> varied;
    varied.reserve(out.size() * static_cast<size_t>(vary));
    for (size_t i = 0; i < out.size(); ++i) {
      auto v = capacity_variants(
          out[i], vary, seed0 + 0x9e3779b97f4a7c15ULL * (i + 1));
      for (auto& net : v) varied.push_back(std::move(net));
    }
    out = std::move(varied);
  }
  return out;
}

bool has_dimacs_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".dimacs" || ext == ".max";
}

} // namespace

std::vector<graph::FlowNetwork> load_dimacs_dir(const std::string& dir) {
  if (!fs::is_directory(dir))
    throw std::invalid_argument("not a directory: " + dir);

  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file() && has_dimacs_extension(entry.path()))
      paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());

  if (paths.empty())
    throw std::invalid_argument("no *.dimacs / *.max instances in " + dir);

  std::vector<graph::FlowNetwork> out;
  out.reserve(paths.size());
  for (const fs::path& p : paths)
    out.push_back(graph::read_dimacs_file(p.string()));
  return out;
}

std::vector<graph::FlowNetwork> load_batch(const std::string& spec_or_path) {
  std::vector<graph::FlowNetwork> out;
  for (std::string source : util::split(spec_or_path, ';')) {
    source = trim(source);
    if (source.empty()) continue;
    // Each source may independently be a DIMACS file, a directory of
    // instances, or a generator spec, so batches can mix recorded and
    // synthetic workloads.
    std::vector<graph::FlowNetwork> part;
    if (fs::is_regular_file(source))
      part.push_back(graph::read_dimacs_file(source));
    else if (fs::is_directory(source))
      part = load_dimacs_dir(source);
    else
      part = expand(parse_source(source));
    for (auto& net : part) out.push_back(std::move(net));
  }
  if (out.empty())
    throw std::invalid_argument("empty workload spec: '" + spec_or_path +
                                "'");
  return out;
}

void write_spec_dimacs(const std::string& spec, const std::string& path) {
  const std::string source = trim(spec);
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("write_spec_dimacs: cannot open " + path);

  if (!fs::is_regular_file(source) && !fs::is_directory(source)) {
    const SourceSpec parsed = parse_source(source);
    if (parsed.kind == "gridflow") {
      // Stream straight from the generator walk: a 1000x1000 gridflow is
      // ~3M arcs, and this path never holds more than one of them.
      parsed.require_keys({"height", "width", "cap"});
      if (parsed.get_int("count", 1) != 1 || parsed.get_int("vary", 1) != 1)
        throw std::invalid_argument(
            "write_spec_dimacs: expects a single instance (count=1, vary=1)");
      graph::write_gridflow_dimacs(
          out, positive(parsed.get_int("height", 32), "height"),
          positive(parsed.get_int("width", 32), "width"),
          positive(parsed.get_int("cap", 64), "cap"),
          static_cast<std::uint64_t>(parsed.get("seed", 1)));
      return;
    }
  }

  const std::vector<graph::FlowNetwork> nets = load_batch(source);
  if (nets.size() != 1)
    throw std::invalid_argument(
        "write_spec_dimacs: spec expands to " + std::to_string(nets.size()) +
        " instances, expected exactly 1");
  graph::write_dimacs(out, nets.front());
}

std::vector<graph::FlowNetwork> capacity_variants(
    const graph::FlowNetwork& base, int count, std::uint64_t seed) {
  positive(count, "count");
  std::vector<graph::FlowNetwork> out;
  out.reserve(count);
  out.push_back(base);
  CapacityFactors factors(seed);
  for (int i = 1; i < count; ++i)
    out.push_back(
        base.transform_capacities([&](double c) { return c * factors.next(); }));
  return out;
}

} // namespace aflow::core
