// perfbench_layers: the in-process half of the repo benchmark (run.py).
//
//   perfbench_layers gen WORKLOAD SEED DIR STEPS ROUNDS [tiny]
//       Generates the workload's instances (DIMACS) and, per round and
//       session, an edit stream of STEPS steps from SEED with this file's own
//       generators, and writes DIR/manifest.json.
//   perfbench_layers ref WORKLOAD SEED N0,N1,... [tiny]
//       Exact reference flow values for stream j (round j / sessions,
//       session j % sessions) after 0..Nj edit steps, or for every corpus
//       instance, each computed by two kernels that must agree. Prints one
//       JSON object; fails if the kernels disagree.
//   perfbench_layers layers SEED DIR [tiny]
//       The fixed in-process layer battery: times the public stage calls of
//       the session, delta, kernel, graph, sharded and analog layers on
//       inputs built from SEED (the same on every workload), prints the
//       per-layer metrics as one JSON object and writes DIR/spans_layers.json.
//
// Generators live here, not in src/graph/generators.cpp, so a change to the
// program cannot change the workload.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analog/solver.hpp"
#include "core/registry.hpp"
#include "core/reuse_pool.hpp"
#include "core/sharded_solver.hpp"
#include "flow/delta.hpp"
#include "flow/maxflow.hpp"
#include "flow/residual.hpp"
#include "graph/csr.hpp"
#include "graph/dimacs.hpp"
#include "graph/network.hpp"
#include "la/lu.hpp"

namespace {

using aflow::graph::FlowNetwork;
using Clock = std::chrono::steady_clock;
using Rng = std::mt19937_64;

// ------------------------------------------------------------- workloads

struct Sizes {
  int stream_side = 300;   // edit_stream grid side (90k vertices, 528k edges)
  int stream_sessions = 3;
  int analog_side = 16;    // the analog battery's grid side (258 vertices)
  int gridflow_h = 100, gridflow_w = 100;
  int rmat_scale = 15, rmat_edges = 100000;
  int layers = 2000, layer_width = 16, fanout = 3;
  int uniform_n = 30000, uniform_m = 180000;
  int path_n = 100000;
  int battery_steps = 40; // replayed delta / analog steps in `layers`
};

Sizes sizes(bool tiny) {
  Sizes s;
  if (tiny) {
    s.stream_side = 40;
    s.analog_side = 8;
    s.gridflow_h = s.gridflow_w = 40;
    s.rmat_scale = 10;
    s.rmat_edges = 1 << 13;
    s.layers = 50;
    s.layer_width = 10;
    s.uniform_n = 2000;
    s.uniform_m = 10000;
    s.path_n = 2000;
    s.battery_steps = 8;
  }
  return s;
}

// Independent, reproducible stream per (seed, tag).
Rng rng_for(std::uint64_t seed, const std::string& tag) {
  std::uint64_t h = 1469598103934665603ull ^ (seed * 0x9E3779B97F4A7C15ull);
  for (const char c : tag) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  return Rng(h);
}

int below(Rng& rng, int n) { return static_cast<int>(rng() % static_cast<std::uint64_t>(n)); }

// Segmentation grid: side x side pixels, terminal arcs with integral
// capacities in [1, 15] (a zero draw omits the arc), lattice arcs of
// capacity 4 in both directions.
FlowNetwork seg_grid(int side, Rng& rng) {
  const int pixels = side * side;
  FlowNetwork net(pixels + 2, pixels, pixels + 1);
  for (int y = 0; y < side; ++y)
    for (int x = 0; x < side; ++x) {
      const int p = y * side + x;
      const int a = below(rng, 16), b = below(rng, 16);
      if (a > 0) net.add_edge(pixels, p, a);
      if (b > 0) net.add_edge(p, pixels + 1, b);
      if (x + 1 < side) {
        net.add_edge(p, p + 1, 4);
        net.add_edge(p + 1, p, 4);
      }
      if (y + 1 < side) {
        net.add_edge(p, p + side, 4);
        net.add_edge(p + side, p, 4);
      }
    }
  return net;
}

// Left-to-right lattice flow: s feeds the left column, the right column
// drains to t, every pixel has right/down/up arcs with capacities in [1, 16].
FlowNetwork gridflow(int h, int w, Rng& rng) {
  const int pixels = h * w;
  const int s = pixels, t = pixels + 1;
  FlowNetwork net(pixels + 2, s, t);
  for (int y = 0; y < h; ++y) {
    net.add_edge(s, y * w, 64);
    for (int x = 0; x < w; ++x) {
      const int p = y * w + x;
      if (x + 1 < w) net.add_edge(p, p + 1, 1 + below(rng, 16));
      if (y + 1 < h) net.add_edge(p, p + w, 1 + below(rng, 16));
      if (y > 0) net.add_edge(p, p - w, 1 + below(rng, 16));
    }
    net.add_edge(y * w + w - 1, t, 64);
  }
  return net;
}

// R-MAT (a, b, c) = (0.57, 0.19, 0.19); source = largest out-degree, sink =
// largest in-degree among the vertices reachable from the source.
FlowNetwork rmat(int scale, int m, Rng& rng) {
  const int n = 1 << scale;
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<std::array<int, 3>> edges;
  edges.reserve(m);
  std::vector<int> outdeg(n), indeg(n);
  for (int k = 0; k < m; ++k) {
    int r = 0, c = 0;
    for (int level = 0; level < scale; ++level) {
      const double x = u(rng);
      const int bit = 1 << (scale - 1 - level);
      if (x < 0.57) {
      } else if (x < 0.76) {
        c |= bit;
      } else if (x < 0.95) {
        r |= bit;
      } else {
        r |= bit;
        c |= bit;
      }
    }
    if (r == c) continue;
    edges.push_back({r, c, 1 + below(rng, 64)});
    ++outdeg[r];
    ++indeg[c];
  }
  const int s = static_cast<int>(std::max_element(outdeg.begin(), outdeg.end()) - outdeg.begin());
  std::vector<std::vector<int>> adj(n);
  for (const auto& e : edges) adj[e[0]].push_back(e[1]);
  std::vector<char> seen(n, 0);
  std::vector<int> queue{s};
  seen[s] = 1;
  for (size_t i = 0; i < queue.size(); ++i)
    for (const int v : adj[queue[i]])
      if (!seen[v]) {
        seen[v] = 1;
        queue.push_back(v);
      }
  int t = -1;
  for (const int v : queue)
    if (v != s && (t < 0 || indeg[v] > indeg[t])) t = v;
  if (t < 0) throw std::runtime_error("rmat: source reaches nothing");
  FlowNetwork net(n, s, t);
  for (const auto& e : edges) net.add_edge(e[0], e[1], e[2]);
  return net;
}

// Deep layered DAG: s -> layer 0 -> ... -> layer L-1 -> t, each vertex wired
// to `fanout` random vertices of the next layer.
FlowNetwork layered(int layers, int width, int fanout, Rng& rng) {
  const int n = layers * width + 2;
  const int s = n - 2, t = n - 1;
  FlowNetwork net(n, s, t);
  for (int v = 0; v < width; ++v) net.add_edge(s, v, 64);
  for (int l = 0; l + 1 < layers; ++l)
    for (int v = 0; v < width; ++v)
      for (int k = 0; k < fanout; ++k)
        net.add_edge(l * width + v, (l + 1) * width + below(rng, width), 1 + below(rng, 16));
  for (int v = 0; v < width; ++v) net.add_edge((layers - 1) * width + v, t, 64);
  return net;
}

// Uniform random digraph over a random s-t Hamiltonian chain, with extra
// terminal arcs so that the interior, not the source degree, bounds the flow.
FlowNetwork uniform_random(int n, int m, Rng& rng) {
  FlowNetwork net(n, 0, n - 1);
  std::vector<int> order(n - 2);
  for (int i = 0; i < n - 2; ++i) order[i] = i + 1;
  std::shuffle(order.begin(), order.end(), rng);
  int prev = 0;
  for (const int v : order) {
    net.add_edge(prev, v, 1 + below(rng, 16));
    prev = v;
  }
  net.add_edge(prev, n - 1, 1 + below(rng, 16));
  for (int k = 0; k < n / 100; ++k) {
    net.add_edge(0, 1 + below(rng, n - 2), 1 + below(rng, 16));
    net.add_edge(1 + below(rng, n - 2), n - 1, 1 + below(rng, 16));
  }
  while (net.num_edges() < m) {
    const int a = below(rng, n), b = below(rng, n);
    if (a != b) net.add_edge(a, b, 1 + below(rng, 16));
  }
  return net;
}

FlowNetwork path(int n, Rng& rng) {
  FlowNetwork net(n, 0, n - 1);
  for (int v = 0; v + 1 < n; ++v) net.add_edge(v, v + 1, 1 + below(rng, 64));
  return net;
}

struct Shape {
  std::string name;
  FlowNetwork net;
};

// The same problem with vertices renumbered and edges reordered.
FlowNetwork relabel(const FlowNetwork& net, Rng& rng) {
  std::vector<int> perm(net.num_vertices()), order(net.num_edges());
  std::iota(perm.begin(), perm.end(), 0);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::shuffle(order.begin(), order.end(), rng);
  FlowNetwork out(net.num_vertices(), perm[net.source()], perm[net.sink()]);
  for (const int e : order) {
    const aflow::graph::Edge& x = net.edge(e);
    out.add_edge(perm[x.from], perm[x.to], x.capacity);
  }
  return out;
}

// The cold_solve corpus is fixed; the seed only relabels it. Random
// instances of one size differ in hardness by tens of percent (dinic on
// gridflow by 2x), which would swamp the figures a change should move, so
// every seed solves the same problems in a different vertex numbering and
// edge order.
std::vector<Shape> corpus(const Sizes& z, std::uint64_t seed) {
  Rng a = rng_for(0, "gridflow"), b = rng_for(0, "rmat"), c = rng_for(0, "layered"),
      d = rng_for(0, "uniform"), e = rng_for(0, "path");
  std::vector<Shape> out;
  out.push_back({"gridflow", gridflow(z.gridflow_h, z.gridflow_w, a)});
  out.push_back({"rmat", rmat(z.rmat_scale, z.rmat_edges, b)});
  out.push_back({"layered", layered(z.layers, z.layer_width, z.fanout, c)});
  out.push_back({"uniform", uniform_random(z.uniform_n, z.uniform_m, d)});
  out.push_back({"path", path(z.path_n, e)});
  for (Shape& sh : out) {
    Rng r = rng_for(seed, "relabel-" + sh.name);
    sh.net = relabel(sh.net, r);
  }
  return out;
}

// One step of an edit stream: the `reconfigure --edits` argument.
using Step = std::vector<aflow::flow::CapacityEdit>;

// Each edit rescales a random edge's *base* capacity by +-15%, so the stream
// is stationary and every edit stays inside the analog trust region.
std::vector<Step> edit_stream(const FlowNetwork& base, int steps, int (*edits_per_step)(int),
                              Rng& rng) {
  std::vector<Step> out(steps);
  for (int j = 0; j < steps; ++j) {
    Step& step = out[j];
    const int k = edits_per_step(j);
    for (int i = 0; i < k; ++i) {
      const int e = below(rng, base.num_edges());
      const double f = (rng() & 1) ? 1.15 : 0.85;
      step.push_back({e, base.edge(e).capacity * f, -1.0});
    }
  }
  return out;
}

// A 10-edit step re-augments about twice as long as a 1-edit step. Three
// 1-edit steps per 10-edit step, in a fixed pattern, keep the step median
// inside the 1-edit mode and the 10-edit steps in the tail; an even or random
// mix would put the median in the gap between the modes, where it jumps.
int one_or_ten(int step) { return step % 4 == 3 ? 10 : 1; }
int eight(int) { return 8; }

struct Session {
  std::string solver;
  FlowNetwork net;
  std::vector<Step> steps;
};

// The edit_stream workload: one Session per client, without its edits. Each
// session's grid is fixed and the seed draws its edit streams. The first
// solve of a fresh grid is most of the set-up time, and push_relabel's took
// from 2.2 s to 3.7 s across seeds on a shared 4-core x86-64 host, which
// would swamp the set-up figure.
std::vector<Session> stream_sessions(const Sizes& z) {
  std::vector<Session> out;
  const char* solvers[] = {"dinic", "push_relabel", "dinic"};
  for (int i = 0; i < z.stream_sessions; ++i) {
    Rng rng = rng_for(0, "stream" + std::to_string(i));
    out.push_back({solvers[i % 3], seg_grid(z.stream_side, rng), {}});
  }
  return out;
}

// Session i's edit stream in one round of a run; every round starts again
// from the session's grid with a stream of its own.
std::vector<Step> stream_edits(const FlowNetwork& grid, std::uint64_t seed, int session, int round,
                               int steps) {
  Rng rng = rng_for(seed, "edits" + std::to_string(session) + "/" + std::to_string(round));
  return edit_stream(grid, steps, one_or_ten, rng);
}

// The analog battery's input: a small grid with 8-edit steps.
Session analog_session(const Sizes& z, std::uint64_t seed, int steps) {
  Rng rng = rng_for(seed, "analog");
  FlowNetwork net = seg_grid(z.analog_side, rng);
  std::vector<Step> st = edit_stream(net, steps, eight, rng);
  return {"analog_dc_warm", std::move(net), std::move(st)};
}

void check_workload(const std::string& workload) {
  if (workload != "edit_stream" && workload != "cold_solve")
    throw std::invalid_argument("unknown workload " + workload);
}

std::string step_text(const Step& step) {
  std::string s;
  char buf[64];
  for (const auto& e : step) {
    std::snprintf(buf, sizeof buf, "%s%d:%.17g", s.empty() ? "" : ",", e.edge, e.capacity);
    s += buf;
  }
  return s;
}

// The benchmark's own DIMACS writer (integral capacities by construction).
void write_dimacs(const std::string& path, const FlowNetwork& net) {
  std::ofstream out(path);
  out << "p max " << net.num_vertices() << ' ' << net.num_edges() << '\n'
      << "n " << net.source() + 1 << " s\n"
      << "n " << net.sink() + 1 << " t\n";
  for (const auto& e : net.edges())
    out << "a " << e.from + 1 << ' ' << e.to + 1 << ' ' << static_cast<long long>(e.capacity)
        << '\n';
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ------------------------------------------------------------- references

// Runs tasks on min(4, hardware) threads; the first exception wins.
void parallel(std::vector<std::function<void()>> tasks) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t workers = std::min<size_t>(std::min(4u, hw), tasks.size());
  std::mutex mu;
  size_t next = 0;
  std::exception_ptr error;
  std::vector<std::thread> pool;
  for (size_t w = 0; w < workers; ++w)
    pool.emplace_back([&] {
      for (;;) {
        size_t i;
        {
          const std::lock_guard<std::mutex> lock(mu);
          if (next == tasks.size() || error) return;
          i = next++;
        }
        try {
          tasks[i]();
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mu);
          error = std::current_exception();
        }
      }
    });
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

// Flow values of `grid` (whose solve by the same backend is `first`) after
// 0..steps.size() steps. Small instances are solved from scratch at every
// step; large ones follow the backend's delta chain, whose values equal a
// scratch solve by the delta path's exactness contract, at a fraction of the
// cost.
std::vector<double> chain(const FlowNetwork& grid, const aflow::flow::MaxFlowResult& first,
                          const std::vector<Step>& steps, bool use_push_relabel) {
  using namespace aflow::flow;
  FlowNetwork net = grid;
  const bool scratch = net.num_edges() < 20000;
  auto cold = use_push_relabel ? &push_relabel : &dinic;
  auto warm = use_push_relabel ? &push_relabel_delta : &dinic_delta;
  MaxFlowResult r = first;
  std::vector<double> values{r.flow_value};
  for (const Step& step : steps) {
    CapacityDelta d{step};
    d.apply(net);
    r = scratch ? cold(net, {}) : warm(net, d, r, {});
    values.push_back(r.flow_value);
  }
  return values;
}

bool agree(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(a)); }

void print_values(const std::vector<double>& v) {
  std::printf("[");
  for (size_t i = 0; i < v.size(); ++i) std::printf("%s%.17g", i ? "," : "", v[i]);
  std::printf("]");
}

int cmd_ref(const std::string& workload, std::uint64_t seed, const std::string& counts,
            const Sizes& z) {
  std::vector<int> n;
  std::stringstream ss(counts);
  for (std::string item; std::getline(ss, item, ',');) n.push_back(std::stoi(item));
  check_workload(workload);
  std::vector<std::vector<double>> a, b;
  if (workload == "cold_solve") {
    std::vector<Shape> shapes = corpus(z, seed);
    a.resize(shapes.size());
    b.resize(shapes.size());
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < shapes.size(); ++i) {
      tasks.push_back([&, i] { a[i] = {aflow::flow::dinic(shapes[i].net).flow_value}; });
      tasks.push_back([&, i] { b[i] = {aflow::flow::push_relabel(shapes[i].net).flow_value}; });
    }
    parallel(std::move(tasks));
  } else {
    // One count per stream: round r's session i is stream r * sessions + i.
    const std::vector<Session> ss = stream_sessions(z);
    const size_t sessions = ss.size();
    if (n.empty() || n.size() % sessions != 0)
      throw std::invalid_argument("ref: one step count per round and session");
    std::vector<aflow::flow::MaxFlowResult> first_a(sessions), first_b(sessions);
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < sessions; ++i) {
      tasks.push_back([&, i] { first_a[i] = aflow::flow::dinic(ss[i].net); });
      tasks.push_back([&, i] { first_b[i] = aflow::flow::push_relabel(ss[i].net); });
    }
    parallel(std::move(tasks));
    std::vector<std::vector<Step>> edits(n.size());
    for (size_t j = 0; j < n.size(); ++j)
      edits[j] = stream_edits(ss[j % sessions].net, seed, static_cast<int>(j % sessions),
                              static_cast<int>(j / sessions), n[j]);
    a.resize(n.size());
    b.resize(n.size());
    // Both kernels at every step, so each session's answers are checked
    // against a kernel other than the one that produced them. The longer
    // push_relabel chains go first.
    tasks.clear();
    for (const bool use_push_relabel : {true, false})
      for (size_t j = 0; j < n.size(); ++j)
        tasks.push_back([&, j, use_push_relabel] {
          const size_t i = j % sessions;
          const auto& first = (use_push_relabel ? first_b : first_a)[i];
          (use_push_relabel ? b : a)[j] = chain(ss[i].net, first, edits[j], use_push_relabel);
        });
    parallel(std::move(tasks));
  }
  for (size_t i = 0; i < a.size(); ++i)
    for (size_t k = 0; k < a[i].size(); ++k)
      if (!agree(a[i][k], b[i][k]))
        throw std::runtime_error("reference kernels disagree on instance " + std::to_string(i) +
                                 " after step " + std::to_string(k));
  std::printf("{\"values\":[");
  for (size_t i = 0; i < a.size(); ++i) {
    if (i) std::printf(",");
    print_values(a[i]);
  }
  std::printf("]}\n");
  return 0;
}

// ------------------------------------------------------------------- gen

int cmd_gen(const std::string& workload, std::uint64_t seed, const std::string& dir, int steps,
            int rounds, const Sizes& z) {
  check_workload(workload);
  std::ofstream manifest(dir + "/manifest.json");
  manifest << "{\"workload\":\"" << workload << "\",\"seed\":" << seed;
  if (workload == "cold_solve") {
    manifest << ",\"corpus\":[";
    int i = 0;
    for (const Shape& s : corpus(z, seed)) {
      const std::string file = dir + "/" + s.name + ".dimacs";
      write_dimacs(file, s.net);
      manifest << (i++ ? "," : "") << "{\"shape\":\"" << s.name << "\",\"file\":\"" << file
               << "\",\"vertices\":" << s.net.num_vertices() << ",\"edges\":" << s.net.num_edges()
               << "}";
    }
    manifest << "]";
  } else {
    manifest << ",\"sessions\":[";
    int i = 0;
    for (const Session& s : stream_sessions(z)) {
      const std::string stem = dir + "/session" + std::to_string(i);
      write_dimacs(stem + ".dimacs", s.net);
      manifest << (i ? "," : "") << "{\"solver\":\"" << s.solver << "\",\"file\":\"" << stem
               << ".dimacs\",\"vertices\":" << s.net.num_vertices() << ",\"edges\":"
               << s.net.num_edges() << ",\"edits\":[";
      for (int r = 0; r < rounds; ++r) {
        const std::string file = stem + ".r" + std::to_string(r) + ".edits";
        std::ofstream edits(file);
        for (const Step& step : stream_edits(s.net, seed, i, r, steps))
          edits << step_text(step) << '\n';
        manifest << (r ? "," : "") << "\"" << file << "\"";
      }
      manifest << "]}";
      ++i;
    }
    manifest << "]";
  }
  manifest << "}\n";
  return manifest ? 0 : 1;
}

// ---------------------------------------------------------------- layers

// Spans are kept in memory and written once at the end.
struct Span {
  std::string name;
  int parent;
  int step;
  double t0, t1; // seconds since the battery started
};

class Tracer {
 public:
  void open(const std::string& name, int step = -1) {
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), step, now(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  double close() {
    Span& s = spans_[stack_.back()];
    stack_.pop_back();
    s.t1 = now();
    return (s.t1 - s.t0) * 1e3;
  }
  // Times fn() as a span and returns its milliseconds.
  template <typename F>
  double time(const std::string& name, F&& fn, int step = -1) {
    open(name, step);
    fn();
    return close();
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out.precision(12);
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"parent\":" << s.parent
          << ",\"step\":" << s.step << ",\"start\":" << s.t0 << ",\"end\":" << s.t1 << "}";
    }
    out << "]\n";
  }

 private:
  double now() const { return std::chrono::duration<double>(Clock::now() - start_).count(); }
  Clock::time_point start_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

class Metrics {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void print() const {
    std::printf("{");
    bool first = true;
    for (const auto& [name, value] : values_) {
      std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
      first = false;
    }
    std::printf("}\n");
  }

 private:
  std::map<std::string, double> values_;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("layer battery: " + what);
}

// session layer: the three O(m) parts of a `reconfigure` request.
void session_layer(Tracer& tr, Metrics& m, const Session& s, int steps) {
  using namespace aflow::flow;
  std::vector<double> copy_ms, apply_ms, diff_ms;
  FlowNetwork cur = s.net;
  for (int k = 0; k < steps; ++k) {
    tr.open("session.reconfigure", k);
    FlowNetwork next;
    copy_ms.push_back(tr.time("session.copy", [&] { next = cur; }, k));
    CapacityDelta d{s.steps[k]};
    apply_ms.push_back(tr.time("session.apply", [&] { d.apply(next); }, k));
    CapacityDelta diff;
    diff_ms.push_back(tr.time("session.diff", [&] { diff = delta_between(cur, next); }, k));
    tr.close();
    cur = std::move(next);
  }
  m.set("session.copy_ms", median(copy_ms));
  m.set("session.apply_ms", median(apply_ms));
  m.set("session.diff_ms", median(diff_ms));
}

// delta layer: whole delta calls per backend, the dinic path split into its
// public stages, and scratch solves of sampled revisions.
void delta_layer(Tracer& tr, Metrics& m, const Session& s, int steps) {
  using namespace aflow::flow;
  FlowNetwork net = s.net;
  MaxFlowResult prior_d = dinic(net), prior_p = push_relabel(net);
  std::vector<double> step_d, step_p, carry, repair, augment, extract, ratio, scratch_d, scratch_p;
  long long ops_d = 0, ops_p = 0;
  const int s_ = net.source(), t_ = net.sink();
  for (int k = 0; k < steps; ++k) {
    CapacityDelta d{s.steps[k]};
    d.apply(net);
    MaxFlowResult rd, rp;
    step_d.push_back(tr.time("delta.step.dinic", [&] { rd = dinic_delta(net, d, prior_d); }, k));
    step_p.push_back(
        tr.time("delta.step.push_relabel", [&] { rp = push_relabel_delta(net, d, prior_p); }, k));
    check(agree(rd.flow_value, rp.flow_value), "delta backends disagree");
    ops_d += rd.operations;
    ops_p += rp.operations;

    // The same dinic step again, stage by stage through the public calls.
    tr.open("delta.staged.dinic", k);
    std::unique_ptr<detail::Residual> r;
    long long ops = 0;
    double value = 0.0;
    std::vector<double> flows;
    carry.push_back(tr.time("delta.carry", [&] {
      r = std::make_unique<detail::Residual>(net, prior_d.edge_flow);
    }, k));
    repair.push_back(tr.time("delta.repair", [&] {
      check(detail::repair_conservation(*r, s_, t_, ops), "repair made no progress");
    }, k));
    augment.push_back(tr.time("delta.augment", [&] { detail::dinic_augment(*r, s_, t_, ops); }, k));
    extract.push_back(tr.time("delta.extract", [&] {
      value = r->flow_value_at(net, s_);
      flows = r->edge_flows(net);
    }, k));
    tr.close();
    check(agree(value, rd.flow_value), "staged dinic step disagrees with dinic_delta");
    ratio.push_back((carry.back() + repair.back() + augment.back() + extract.back()) / step_d.back());

    if (k % std::max(1, steps / 2) == 0) {
      scratch_d.push_back(tr.time("delta.scratch.dinic", [&] { dinic(net); }, k));
      scratch_p.push_back(tr.time("delta.scratch.push_relabel", [&] { push_relabel(net); }, k));
    }
    prior_d = std::move(rd);
    prior_p = std::move(rp);
  }
  m.set("delta.step_ms.dinic", median(step_d));
  m.set("delta.step_ms.push_relabel", median(step_p));
  m.set("delta.carry_ms", median(carry));
  m.set("delta.repair_ms", median(repair));
  m.set("delta.augment_ms", median(augment));
  m.set("delta.extract_ms", median(extract));
  // The stated reconciliation tolerance: the whole call also validates the
  // prior and counts distinct edges, and two executions of one step differ
  // by timing noise.
  const double stage_sum_ratio = median(ratio);
  check(stage_sum_ratio >= 0.8 && stage_sum_ratio <= 1.2,
        "delta stages sum to " + std::to_string(stage_sum_ratio) +
            " of the whole step, outside [0.8, 1.2]");
  m.set("delta.stage_sum_ratio", stage_sum_ratio);
  m.set("delta.ops.dinic", static_cast<double>(ops_d));
  m.set("delta.ops.push_relabel", static_cast<double>(ops_p));
  m.set("delta.speedup_vs_scratch.dinic", median(scratch_d) / median(step_d));
  m.set("delta.speedup_vs_scratch.push_relabel", median(scratch_p) / median(step_p));
}

// kernel, graph and sharded layers on the cold_solve corpus.
void corpus_layers(Tracer& tr, Metrics& m, const Sizes& z, std::uint64_t seed,
                   const std::string& dir) {
  using namespace aflow;
  for (const Shape& sh : corpus(z, seed)) {
    flow::MaxFlowResult a, b;
    m.set("kernel.dinic_ms." + sh.name, tr.time("kernel.dinic." + sh.name, [&] {
      a = flow::dinic(sh.net);
    }));
    m.set("kernel.push_relabel_ms." + sh.name, tr.time("kernel.push_relabel." + sh.name, [&] {
      b = flow::push_relabel(sh.net);
    }));
    check(agree(a.flow_value, b.flow_value), "kernels disagree on " + sh.name);
    m.set("kernel.dinic_ops." + sh.name, static_cast<double>(a.operations));
    m.set("kernel.push_relabel_ops." + sh.name, static_cast<double>(b.operations));

    const std::string file = dir + "/layers_" + sh.name + ".dimacs";
    write_dimacs(file, sh.net);
    FlowNetwork parsed;
    m.set("graph.parse_ms." + sh.name, tr.time("graph.parse." + sh.name, [&] {
      parsed = graph::read_dimacs_file(file);
    }));
    check(parsed.num_edges() == sh.net.num_edges(), "parse lost edges on " + sh.name);
    if (sh.name != "gridflow") continue;

    graph::CsrGraph csr;
    m.set("graph.stream_parse_ms.gridflow", tr.time("graph.stream_parse.gridflow", [&] {
      csr = graph::read_dimacs_stream_file(file);
    }));
    core::ShardOptions so;
    so.shards = 4;
    so.num_threads = static_cast<int>(std::min(4u, std::max(1u, std::thread::hardware_concurrency())));
    core::ShardReport rep;
    flow::MaxFlowResult r;
    tr.time("sharded.solve", [&] { r = core::ShardedSolver(so).solve_csr(csr, &rep); });
    check(agree(r.flow_value, a.flow_value), "sharded solve disagrees");
    m.set("sharded.partition_ms", rep.partition_seconds * 1e3);
    m.set("sharded.regions_ms", rep.region_seconds * 1e3);
    m.set("sharded.stitch_ms", rep.stitch_seconds * 1e3);
    m.set("sharded.refine_ms", rep.refine_seconds * 1e3);
    m.set("sharded.repair_ops", static_cast<double>(rep.repair_operations));
    m.set("sharded.refine_ops", static_cast<double>(rep.refine_operations));
    m.set("sharded.stitched_share", rep.stitched_value / rep.flow_value);
  }
}

// analog layer: substrate mapping, warm delta re-solves through a reuse
// pool, and transient solves, each scored against the exact value.
void analog_layer(Tracer& tr, Metrics& m, const Session& s, int steps) {
  using namespace aflow;
  analog::AnalogSolveOptions opt = *core::builtin_analog_options("analog_dc_warm");
  opt.reuse_pool = std::make_shared<core::ReusePool>(64ull << 20);
  opt.ordering_cache = std::make_shared<la::OrderingCache>();
  const analog::AnalogMaxFlowSolver dc(opt);
  FlowNetwork net = s.net;
  std::vector<double> map_ms, delta_ms, err;
  long long iterations = 0, refactors = 0, factors = 0, engaged = 0;
  dc.solve(net);
  for (int k = 0; k < steps; ++k) {
    flow::CapacityDelta d{s.steps[k]};
    d.apply(net);
    map_ms.push_back(tr.time("analog.map", [&] { (void)dc.map(net); }, k));
    analog::AnalogFlowResult r;
    delta_ms.push_back(tr.time("analog.solve_delta", [&] { r = dc.solve_delta(net, d); }, k));
    err.push_back(r.relative_error(flow::dinic(net).flow_value));
    iterations += r.dc_iterations;
    refactors += r.refactors;
    factors += r.full_factors + r.refactors;
    engaged += r.delta_solves;
  }
  analog::AnalogSolveOptions topt = *core::builtin_analog_options("analog_transient_warm");
  topt.reuse_pool = std::make_shared<core::ReusePool>(64ull << 20);
  const analog::AnalogMaxFlowSolver transient(topt);
  std::vector<double> transient_ms, transient_err;
  for (int k = 0; k < 2; ++k) {
    analog::AnalogFlowResult r;
    transient_ms.push_back(tr.time("analog.transient", [&] { r = transient.solve(net); }, k));
    transient_err.push_back(r.relative_error(flow::dinic(net).flow_value));
  }
  m.set("analog.map_ms", median(map_ms));
  m.set("analog.solve_delta_ms", median(delta_ms));
  m.set("analog.transient_ms", median(transient_ms));
  m.set("analog.battery_rel_err_max", *std::max_element(err.begin(), err.end()));
  m.set("analog.battery_transient_rel_err", median(transient_err));
  m.set("analog.battery_iterations", static_cast<double>(iterations) / steps);
  m.set("analog.battery_refactor_share", factors ? static_cast<double>(refactors) / factors : 0.0);
  m.set("analog.battery_delta_engaged_ratio", static_cast<double>(engaged) / steps);
  const core::ReusePool::Stats pool = opt.reuse_pool->stats();
  const long long lookups = pool.hits + pool.misses;
  m.set("pool.battery_hit_ratio", lookups ? static_cast<double>(pool.hits) / lookups : 0.0);
  m.set("pool.battery_bytes", static_cast<double>(opt.reuse_pool->bytes()));
}

int cmd_layers(std::uint64_t seed, const std::string& dir, const Sizes& z) {
  Tracer tr;
  Metrics m;
  const int n = z.battery_steps;
  {
    Session s = std::move(stream_sessions(z).front());
    s.steps = stream_edits(s.net, seed, 0, 0, n);
    session_layer(tr, m, s, n);
    delta_layer(tr, m, s, n);
  }
  corpus_layers(tr, m, z, seed, dir);
  analog_layer(tr, m, analog_session(z, seed, n), n);
  tr.write(dir + "/spans_layers.json");
  m.print();
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const std::vector<std::string> a(argv + 1, argv + argc);
    const bool tiny = !a.empty() && a.back() == "tiny";
    const Sizes z = sizes(tiny);
    if (a.size() >= 6 && a[0] == "gen")
      return cmd_gen(a[1], std::stoull(a[2]), a[3], std::stoi(a[4]), std::stoi(a[5]), z);
    if (a.size() >= 4 && a[0] == "ref") return cmd_ref(a[1], std::stoull(a[2]), a[3], z);
    if (a.size() >= 3 && a[0] == "layers") return cmd_layers(std::stoull(a[1]), a[2], z);
    std::fprintf(stderr,
                 "usage: perfbench_layers gen WORKLOAD SEED DIR STEPS ROUNDS [tiny]\n"
                 "       perfbench_layers ref WORKLOAD SEED N0,N1,... [tiny]\n"
                 "       perfbench_layers layers SEED DIR [tiny]\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
    return 1;
  }
}
