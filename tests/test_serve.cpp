// ServeEngine: the line protocol, error robustness, the 100-request mixed
// stream acceptance (solves + reconfigurations in one persistent process),
// and the LRU pool bound under a byte budget.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.hpp"
#include "core/serve_engine.hpp"
#include "core/workload.hpp"

namespace core = aflow::core;
namespace graph = aflow::graph;

namespace {

/// Minimal extractors for the single-line JSON responses (the repo has a
/// writer, not a parser; the schema is flat enough for key search).
long long json_ll(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing key " << key << " in " << json;
  if (at == std::string::npos) return -1;
  return std::strtoll(json.c_str() + at + needle.size(), nullptr, 10);
}

double json_double(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing key " << key << " in " << json;
  if (at == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

bool json_bool(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing key " << key << " in " << json;
  return at != std::string::npos &&
         json.compare(at + needle.size(), 4, "true") == 0;
}

bool looks_like_json_object(const std::string& s) {
  return !s.empty() && s.front() == '{' && s.back() == '}' &&
         s.find('\n') == std::string::npos;
}

std::string json_string(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing key " << key << " in " << json;
  if (at == std::string::npos) return {};
  const size_t begin = at + needle.size();
  return json.substr(begin, json.find('"', begin) - begin);
}

/// The keys, in order, of the first object named `key` in `json` at or
/// after `from`, nested objects skipped.
std::vector<std::string> object_keys(const std::string& json,
                                     const std::string& key, size_t from = 0) {
  const std::string needle = "\"" + key + "\":{";
  const size_t at = json.find(needle, from);
  EXPECT_NE(at, std::string::npos) << "missing object " << key << " in "
                                   << json;
  std::vector<std::string> keys;
  if (at == std::string::npos) return keys;
  int depth = 0;
  for (size_t i = at + needle.size() - 1; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      size_t end = i + 1;
      while (json[end] != '"') end += json[end] == '\\' ? 2 : 1;
      if (depth == 1 && json[end + 1] == ':')
        keys.push_back(json.substr(i + 1, end - i - 1));
      i = end;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth == 0) {
      break;
    }
  }
  return keys;
}

/// The metrics object's keys, in wire order (docs/BENCH_FORMAT.md).
const std::vector<std::string> kMetricsKeys = {
    "iterations", "full_factors", "refactors", "prototype_refactors",
    "rhs_refreshes", "warm_iterations", "cold_iterations", "pool_hits",
    "pool_misses", "pool_evictions", "delta_solves", "delta_fallbacks",
    "edges_touched", "injected_excess_arcs", "returned_excess_walks",
    "phase2_fallbacks", "warm_escalations", "fallback_analog_digital",
    "fallback_region_retries", "fallback_region_direct",
    "fallback_pool_rebuilds"};

} // namespace

TEST(ServeEngine, ProtocolBasics) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);

  EXPECT_EQ(engine.handle(""), "");
  EXPECT_EQ(engine.handle("   "), "");
  EXPECT_EQ(engine.handle("# a comment line"), "");

  const std::string load = engine.handle("load --spec grid:side=4,seed=1");
  ASSERT_TRUE(looks_like_json_object(load)) << load;
  EXPECT_TRUE(json_bool(load, "ok")) << load;
  EXPECT_NE(load.find("\"schema\":\"aflow-serve-v1\""), std::string::npos);
  EXPECT_NE(load.find("\"request\":\"load\""), std::string::npos);

  const std::string solve = engine.handle("solve --solver dinic");
  EXPECT_TRUE(json_bool(solve, "ok")) << solve;
  EXPECT_GT(json_ll(solve, "flow"), 0);
  // Schedule-dependent fields live under the trailing telemetry object.
  EXPECT_NE(solve.find("\"telemetry\":{"), std::string::npos) << solve;

  const std::string stats = engine.handle("stats");
  EXPECT_TRUE(json_bool(stats, "ok")) << stats;
  EXPECT_NE(stats.find("\"solvers\":["), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"sessions\":{"), std::string::npos) << stats;

  EXPECT_FALSE(engine.done());
  const std::string quit = engine.handle("quit");
  EXPECT_TRUE(json_bool(quit, "ok")) << quit;
  EXPECT_TRUE(engine.done());
}

TEST(ServeEngine, MalformedRequestsNeverTerminateTheEngine) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);

  for (const char* bad : {
           "bogus",
           "solve",                          // nothing loaded yet
           "reconfigure --seed 1",           // nothing loaded yet
           "load --spec nonsense:kind=1",    // unknown generator
           "load",                           // missing arg
           "sweep --points 0",               // after load fails: no instance
           "batch --solver dinic",           // missing --spec
       }) {
    const std::string resp = engine.handle(bad);
    ASSERT_TRUE(looks_like_json_object(resp)) << resp;
    EXPECT_FALSE(json_bool(resp, "ok")) << bad << " -> " << resp;
    EXPECT_NE(resp.find("\"error\":"), std::string::npos) << resp;
    EXPECT_FALSE(engine.done());
  }

  // Unknown solver surfaces as an error response, then the engine recovers.
  EXPECT_TRUE(json_bool(engine.handle("load --spec grid:side=4,seed=2"), "ok"));
  EXPECT_FALSE(json_bool(engine.handle("solve --solver no_such"), "ok"));
  const std::string ok = engine.handle("solve --solver edmonds_karp");
  EXPECT_TRUE(json_bool(ok, "ok")) << ok;
}

TEST(ServeEngine, ReconfigureRejectsEdgeIndicesBeyondIntRange) {
  // 4294967297 (2^32 + 1) and -4294967295 both narrow to edge 1 as a 32-bit
  // int; they must be refused, not silently edit a valid edge.
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  EXPECT_TRUE(json_bool(engine.handle("load --spec grid:side=4,seed=1"), "ok"));
  for (const char* bad : {"reconfigure --edits 4294967297:7.25",
                          "reconfigure --edits 0:7.25,-4294967295:7.25"}) {
    const std::string resp = engine.handle(bad);
    EXPECT_FALSE(json_bool(resp, "ok")) << bad << " -> " << resp;
    EXPECT_NE(resp.find("bad --edits item"), std::string::npos) << resp;
  }
  // Neither request touched the instance, so edge 1 still differs from the
  // capacity the refused items named.
  const std::string edit = engine.handle("reconfigure --edits 1:7.25");
  EXPECT_TRUE(json_bool(edit, "ok")) << edit;
  EXPECT_EQ(json_ll(edit, "edits_applied"), 1) << edit;
}

TEST(ServeEngine, SweepRefusesMorePointsThanItsBound) {
  // `sweep --points N` allocates and solves N points, so a request line
  // past the 4096-point bound is refused up front instead of running until
  // its deadline (or, without one, for as long as N solves take).
  core::ServeEngine engine;
  EXPECT_TRUE(json_bool(engine.handle("load --spec grid:side=4,seed=1"), "ok"));
  const std::string resp =
      engine.handle("sweep --points 5000 --deadline-ms 100");
  EXPECT_FALSE(json_bool(resp, "ok")) << resp;
  EXPECT_EQ(json_string(resp, "code"), "invalid_argument") << resp;
  // The bound itself is served (here cut short by its deadline).
  const std::string bound =
      engine.handle("sweep --points 4096 --deadline-ms 1");
  EXPECT_EQ(bound.find("invalid_argument"), std::string::npos) << bound;
}

TEST(ServeEngine, SessionViewCountsThisSessionsRequests) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);

  EXPECT_TRUE(json_bool(engine.handle("load --spec grid:side=4,seed=1"), "ok"));
  EXPECT_TRUE(json_bool(engine.handle("solve --solver dinic"), "ok"));
  const std::string view = engine.handle("session");
  EXPECT_TRUE(json_bool(view, "ok")) << view;
  EXPECT_EQ(json_ll(view, "requests"), 3);
  EXPECT_EQ(json_ll(view, "solves"), 1);
  EXPECT_EQ(json_ll(view, "failed"), 0);
  EXPECT_NE(view.find("\"solve_metrics\":{"), std::string::npos) << view;
  EXPECT_NE(view.find("\"instance\":{\"loaded\":true"), std::string::npos)
      << view;
}

TEST(ServeEngine, ShutdownEndsTheSessionAndFlagsTheEngine) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);

  EXPECT_FALSE(engine.shutdown_requested());
  const std::string resp = engine.handle("shutdown");
  EXPECT_TRUE(json_bool(resp, "ok")) << resp;
  EXPECT_TRUE(engine.done());
  EXPECT_TRUE(engine.shutdown_requested());
}

TEST(ServeEngine, MixedHundredRequestStreamWithBoundedPool) {
  // The ISSUE 4 acceptance stream: 100 mixed requests (solves,
  // reconfigurations, sweeps, min-cuts, topology switches) through one
  // process, every response a valid single-line JSON document, with every
  // ReusePool bounded by a 1-byte budget (so each topology switch must
  // evict) and the eviction counters visible in the stats response.
  core::ServeOptions opt;
  opt.deterministic = true;
  opt.pool_byte_budget = 1;
  core::ServeEngine engine(opt);

  std::vector<std::string> script;
  script.push_back("load --spec grid:side=5,seed=1");
  int side = 4;
  while (script.size() < 97) {
    const size_t i = script.size();
    if (i % 24 == 0) {
      // Topology switch: a new MNA pattern, forcing LRU eviction at the
      // next store under the 1-byte budget.
      script.push_back("load --spec grid:side=" + std::to_string(side++) +
                       ",seed=1");
    } else if (i % 12 == 0) {
      script.push_back("sweep --points 3");
    } else if (i % 12 == 6) {
      script.push_back("mincut");
    } else if (i % 2 == 0) {
      script.push_back("reconfigure --seed " + std::to_string(i));
    } else {
      script.push_back("solve --solver analog_dc_warm");
    }
  }
  script.push_back("reconfigure --scale 1.25");
  script.push_back("solve --solver analog_dc_warm --check");
  script.push_back("stats");
  ASSERT_EQ(script.size(), 100u);

  int solves_ok = 0, warm_solves = 0;
  std::string last_solve, stats;
  for (const std::string& line : script) {
    const std::string resp = engine.handle(line);
    ASSERT_TRUE(looks_like_json_object(resp)) << line << " -> " << resp;
    ASSERT_NE(resp.find("\"schema\":\"aflow-serve-v1\""), std::string::npos);
    if (line.rfind("solve", 0) == 0 &&
        line.find("--check") == std::string::npos) {
      // (--check fails by design on approximate analog flows.)
      EXPECT_TRUE(json_bool(resp, "ok")) << line << " -> " << resp;
      ++solves_ok;
      if (json_bool(resp, "warm_started")) ++warm_solves;
      last_solve = resp;
    } else if (line == "stats") {
      stats = resp;
    }
    EXPECT_FALSE(engine.done());
  }
  EXPECT_TRUE(json_bool(engine.handle("quit"), "ok"));
  EXPECT_TRUE(engine.done());

  // Reconfigurations between solves keep the pool hot: most solves after
  // the first on a given topology warm-start.
  EXPECT_GT(solves_ok, 30);
  EXPECT_GT(warm_solves, solves_ok / 2);

  // Pool bound + eviction visibility: with a 1-byte budget the bank pool
  // never holds more than the one (oversized) most-recent entry, and the
  // topology switches show up as evictions in the cumulative stats.
  ASSERT_FALSE(last_solve.empty());
  EXPECT_EQ(json_ll(last_solve, "entries"), 1) << last_solve;
  ASSERT_FALSE(stats.empty());
  EXPECT_TRUE(json_bool(stats, "ok"));
  EXPECT_GE(json_ll(stats, "evictions"), 3) << stats;
  EXPECT_EQ(json_ll(stats, "pool_byte_budget"), 1);
}

TEST(ServeEngine, BatchRequestsShareThePersistentPoolAcrossRequests) {
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);

  const std::string spec = "grid:side=5,seed=3,vary=4";
  const std::string first =
      engine.handle("batch --solver analog_dc_warm --spec " + spec);
  ASSERT_TRUE(json_bool(first, "ok")) << first;
  EXPECT_EQ(json_ll(first, "instances"), 4);
  EXPECT_EQ(json_ll(first, "failed"), 0);
  // Within one batch, everything after the first instance warm-starts.
  EXPECT_EQ(json_ll(first, "warm_started_instances"), 3) << first;

  // The pool survives the request boundary: a second identical batch
  // warm-starts every instance.
  const std::string second =
      engine.handle("batch --solver analog_dc_warm --spec " + spec);
  ASSERT_TRUE(json_bool(second, "ok")) << second;
  EXPECT_EQ(json_ll(second, "warm_started_instances"), 4) << second;
  EXPECT_EQ(json_ll(second, "pool_misses"), 0) << second;
}

TEST(ServeEngine, MetricsObjectsKeepTheirKeyOrder) {
  // The wire format of every metrics object: the same 21 counters in the
  // same order in solve telemetry, the stats bank/sweep/min-cut scopes and
  // the session view, plus the sweep and min-cut responses' hand-picked
  // telemetry subsets.
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  ASSERT_TRUE(json_bool(engine.handle("load --spec grid:side=4,seed=1"), "ok"));

  const std::string solve = engine.handle("solve --solver analog_dc_warm");
  ASSERT_TRUE(json_bool(solve, "ok")) << solve;
  EXPECT_EQ(object_keys(solve, "metrics"), kMetricsKeys) << solve;

  const std::string sweep = engine.handle("sweep --points 3");
  ASSERT_TRUE(json_bool(sweep, "ok")) << sweep;
  EXPECT_EQ(object_keys(sweep, "telemetry"),
            (std::vector<std::string>{
                "warm_started", "dc_iterations", "warm_iterations",
                "cold_iterations", "full_factors", "refactors", "pool_hits",
                "pool_misses", "pool_evictions", "pool"}))
      << sweep;

  const std::string mincut = engine.handle("mincut");
  ASSERT_TRUE(json_bool(mincut, "ok")) << mincut;
  EXPECT_EQ(object_keys(mincut, "telemetry"),
            (std::vector<std::string>{"warm_started", "dc_iterations",
                                      "warm_iterations", "cold_iterations",
                                      "pool_hits", "pool_misses",
                                      "pool_evictions", "pool"}))
      << mincut;

  const std::string stats = engine.handle("stats");
  ASSERT_TRUE(json_bool(stats, "ok")) << stats;
  EXPECT_EQ(object_keys(stats, "metrics", stats.find("\"solvers\":[")),
            kMetricsKeys)
      << stats;
  EXPECT_EQ(object_keys(stats, "sweep_metrics"), kMetricsKeys) << stats;
  EXPECT_EQ(object_keys(stats, "mincut_metrics"), kMetricsKeys) << stats;

  const std::string view = engine.handle("session");
  ASSERT_TRUE(json_bool(view, "ok")) << view;
  for (const char* scope : {"solve_metrics", "sweep_metrics", "mincut_metrics"})
    EXPECT_EQ(object_keys(view, scope), kMetricsKeys) << scope << ": " << view;
}

TEST(ServeEngine, DeepInstanceSolvesThroughDinic) {
  // A 200k-layer, width-1 layered instance is one s-t path of 200k arcs:
  // a Dinic DFS that recursed per path vertex overflowed the stack here and
  // killed the whole process with every session on it.
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  const std::string load = engine.handle(
      "load --spec \"layered:layers=200000,width=1,fanout=1,cap=5\"");
  ASSERT_TRUE(json_bool(load, "ok")) << load;

  const std::string reference = engine.handle("solve --solver push_relabel");
  ASSERT_TRUE(json_bool(reference, "ok")) << reference;
  const std::string solve = engine.handle("solve --solver dinic");
  ASSERT_TRUE(json_bool(solve, "ok")) << solve;
  EXPECT_EQ(json_ll(solve, "flow"), json_ll(reference, "flow"));
  EXPECT_TRUE(json_bool(engine.handle("session"), "ok"));
}

TEST(ServeEngine, NonFiniteCapacitiesAreRefusedAndTheSessionKeepsServing) {
  // inf capacities used to be accepted: the next solve then spun inside one
  // blocking-flow phase (inf - inf residuals) or answered flow:null. Each
  // refusal is asserted before the next solve is sent, so a regression
  // fails here instead of hanging.
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  ASSERT_TRUE(json_bool(engine.handle("load --spec grid:side=4,seed=1"), "ok"));
  const std::string solve0 = engine.handle("solve --solver dinic");
  ASSERT_TRUE(json_bool(solve0, "ok")) << solve0;
  const long long rev0 = json_ll(engine.handle("session"), "revision");

  for (const char* bad : {"reconfigure --edits 0:inf,1:inf",
                          "reconfigure --edits 0:inf",
                          "reconfigure --edits 2:nan"}) {
    const std::string resp = engine.handle(bad);
    ASSERT_FALSE(json_bool(resp, "ok")) << bad << " -> " << resp;
    EXPECT_EQ(json_string(resp, "code"), "invalid_argument") << resp;
    EXPECT_EQ(json_ll(engine.handle("session"), "revision"), rev0);
    const std::string solve = engine.handle("solve --solver dinic");
    ASSERT_TRUE(json_bool(solve, "ok")) << solve;
    EXPECT_EQ(json_ll(solve, "flow"), json_ll(solve0, "flow")) << solve;
  }

  // A finite capacity that a --scale overflows to inf is refused as well.
  const std::string huge =
      engine.handle("reconfigure --edits 0:1e308,1:1e308");
  ASSERT_TRUE(json_bool(huge, "ok")) << huge;
  const long long rev1 = json_ll(huge, "revision");
  const std::string scaled = engine.handle("reconfigure --scale 10");
  ASSERT_FALSE(json_bool(scaled, "ok")) << scaled;
  EXPECT_EQ(json_string(scaled, "code"), "invalid_argument") << scaled;
  EXPECT_EQ(json_ll(engine.handle("session"), "revision"), rev1);
  const std::string solve = engine.handle("solve --solver dinic --scratch");
  EXPECT_TRUE(json_bool(solve, "ok")) << solve;
}

TEST(ServeEngine, MalformedDimacsLoadsAreWrongRequests) {
  // A DIMACS file that does not parse is a wrong request input, like a bad
  // flag: invalid_argument, not retryable, with the reader's message. The
  // truncated file used to answer "internal". The instance loaded before
  // keeps serving.
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  ASSERT_TRUE(json_bool(engine.handle("load --spec grid:side=4,seed=1"), "ok"));
  const std::string solve0 = engine.handle("solve --solver dinic");
  ASSERT_TRUE(json_bool(solve0, "ok")) << solve0;

  const std::string path = (std::filesystem::temp_directory_path() /
                            "aflow_test_serve_malformed.dimacs")
                               .string();
  const std::pair<std::string, std::string> files[] = {
      {"p max 3 2\nn 1 s\nn 3 t\na 1 2 7\n",
       "declares 2 arcs but the file contains 1"},
      {"p max 3 2\nn 1 s\nn 3 t\na 1 2 5 7\na 2 3 4\n",
       "trailing characters after the last field at line 4"},
      // An overstated count is a count mismatch, not a failed
      // preallocation (resource_exhausted, which no retry could cure).
      {"p max 4 2000000000\nn 1 s\nn 4 t\na 1 2 3\n",
       "declares 2000000000 arcs but the file contains 1"},
  };
  for (const auto& [text, message] : files) {
    std::ofstream(path) << text;
    const std::string resp = engine.handle("load --input " + path);
    EXPECT_FALSE(json_bool(resp, "ok")) << resp;
    EXPECT_EQ(json_string(resp, "code"), "invalid_argument") << resp;
    EXPECT_FALSE(json_bool(resp, "retryable")) << resp;
    EXPECT_NE(resp.find(message), std::string::npos) << resp;
    const std::string solve = engine.handle("solve --solver dinic");
    EXPECT_EQ(json_ll(solve, "flow"), json_ll(solve0, "flow")) << solve;
  }
  std::filesystem::remove(path);
}

TEST(ServeEngine, EmptyInstanceDirectoryIsAWrongRequest) {
  // A directory without *.dimacs / *.max files names no instance: a wrong
  // request, like a malformed file, not an internal error.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "aflow_test_serve_empty_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directory(dir);
  std::ofstream(dir / "notes.txt") << "not an instance\n";
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  const std::string resp = engine.handle("load --input " + dir.string());
  EXPECT_FALSE(json_bool(resp, "ok")) << resp;
  EXPECT_EQ(json_string(resp, "code"), "invalid_argument") << resp;
  EXPECT_FALSE(json_bool(resp, "retryable")) << resp;
  EXPECT_NE(resp.find("no *.dimacs / *.max instances"), std::string::npos)
      << resp;
  EXPECT_THROW(core::load_dimacs_dir((dir / "notes.txt").string()),
               std::invalid_argument); // not a directory
  std::filesystem::remove_all(dir);
}

TEST(ServeEngine, ReconfigureSeedReprogramsTheCapacitiesAsLoaded) {
  // `reconfigure --seed K` answers as capacity_variants(as loaded, 2, K)[1]
  // whatever edits came before it, and a second --seed K after more edits
  // answers the same.
  const std::string spec = "grid:side=6,seed=1";
  const graph::FlowNetwork loaded = core::load_batch(spec).front();
  const graph::FlowNetwork variant = core::capacity_variants(loaded, 2, 5)[1];
  const double flow = core::solve("dinic", variant).flow_value;

  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  ASSERT_TRUE(json_bool(engine.handle("load --spec " + spec), "ok"));
  graph::FlowNetwork edited = loaded;
  for (const std::vector<std::pair<int, double>>& edits :
       {std::vector<std::pair<int, double>>{{0, 3.0}, {5, 9.5}},
        std::vector<std::pair<int, double>>{{3, 2.0}, {4, 100.0}, {0, 1.0}}}) {
    std::string list;
    for (const auto& [edge, capacity] : edits) {
      list += (list.empty() ? "" : ",") + std::to_string(edge) + ":" +
              std::to_string(capacity);
      edited.set_capacity(edge, capacity);
    }
    const std::string edit = engine.handle("reconfigure --edits " + list);
    ASSERT_TRUE(json_bool(edit, "ok")) << edit;
    ASSERT_TRUE(json_bool(engine.handle("solve --solver dinic"), "ok"));

    const std::string seeded = engine.handle("reconfigure --seed 5");
    ASSERT_TRUE(json_bool(seeded, "ok")) << seeded;
    EXPECT_EQ(json_double(seeded, "max_capacity"), variant.max_capacity())
        << seeded;
    long long differing = 0;
    for (int e = 0; e < variant.num_edges(); ++e)
      differing += edited.edge(e).capacity != variant.edge(e).capacity;
    EXPECT_EQ(json_ll(seeded, "edits_applied"), differing) << seeded;
    const std::string solve = engine.handle("solve --solver dinic --scratch");
    EXPECT_EQ(json_double(solve, "flow"), flow) << solve;
    edited = variant;
  }
}

TEST(ServeEngine, OversizedOrUnsatisfiableSpecsAreRefused) {
  // Each spec used to crash (an int size wrapping to 0), wedge (sampling
  // 2e9 distinct edges out of 2 possible ones) or fail with a misleading
  // error from wrapped vertex indices. The small unsatisfiable case leads,
  // so a regression fails on it instead of wedging on the later ones.
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  for (const char* spec : {"uniform:n=2,m=3", "grid:side=65536",
                           "layered:layers=65536,width=65536",
                           "gridflow:height=65536,width=65536",
                           "uniform:n=2,m=2000000000"}) {
    const std::string resp =
        engine.handle(std::string("load --spec \"") + spec + "\"");
    ASSERT_FALSE(json_bool(resp, "ok")) << spec << " -> " << resp;
    ASSERT_EQ(json_string(resp, "code"), "invalid_argument") << resp;
  }
  ASSERT_TRUE(json_bool(engine.handle("load --spec grid:side=4,seed=1"), "ok"));
  const std::string solve = engine.handle("solve --solver dinic");
  EXPECT_TRUE(json_bool(solve, "ok")) << solve;
  EXPECT_EQ(json_ll(solve, "flow"), 90) << solve;
}

TEST(ServeEngine, EveryCommandRefusesWhatItDoesNotDeclare) {
  // A request means exactly what it says: a flag the command does not
  // declare, a valued flag without its value, a number with trailing
  // characters or outside its range, a repeated flag and a stray token are
  // each refused as a wrong request, before anything runs. The session's
  // revision and deadline stay as they were, and the next solve answers
  // the same flow.
  core::ServeOptions opt;
  opt.deterministic = true;
  core::ServeEngine engine(opt);
  ASSERT_TRUE(json_bool(engine.handle("load --spec grid:side=8,seed=1"), "ok"));
  const std::string solve0 = engine.handle("solve --solver dinic");
  ASSERT_TRUE(json_bool(solve0, "ok")) << solve0;
  const long long rev0 = json_ll(engine.handle("session"), "revision");

  const auto known_list = [](const std::string& resp) {
    const size_t at = resp.find("(known: ");
    EXPECT_NE(at, std::string::npos) << resp;
    if (at == std::string::npos) return std::string();
    return resp.substr(at + 8, resp.find(')', at) - at - 8);
  };
  const auto expect_refused = [&](const std::string& line) {
    const std::string resp = engine.handle(line);
    EXPECT_FALSE(json_bool(resp, "ok")) << line << " -> " << resp;
    EXPECT_EQ(json_string(resp, "code"), "invalid_argument")
        << line << " -> " << resp;
    const std::string session = engine.handle("session");
    EXPECT_EQ(json_ll(session, "revision"), rev0) << line;
    EXPECT_EQ(json_ll(session, "deadline_ms"), 0) << line;
    const std::string solve = engine.handle("solve --solver dinic");
    EXPECT_EQ(json_ll(solve, "flow"), json_ll(solve0, "flow"))
        << line << " -> " << solve;
    return resp;
  };

  // Requests a parser that skips what it does not know answers by a guess
  // (named beside each), and wrong requests that must not be "internal".
  for (const char* line : {
           "solve --sovler push_relabel",         // the analog default
           "solve --solver",                      // the analog default
           "solve --dealine-ms 5 --solver dinic", // no deadline
           "solve --shards 2x",                   // 2 regions
           "reconfigure --scale 2abc",            // scale 2
           "reconfigure --edits 0:5 --seed",      // no --seed
           "load --spec A --spec B",              // the first value
           "solve --solver dinic --solver push_relabel", // the first value
           "solve --solver dinic extra",          // ignores the token
           "sweep --points 4294967297",           // wraps to one point
           "reconfigure --edits nope",
           "batch",
           "solve --deadline-ms -5",
           "frobnicate",
       })
    expect_refused(line);

  // Every command with every flag it declares: "--flag" is a switch,
  // "--flag=VALUE" a valued flag with a well-formed value (a number when
  // the flag takes one). The refusals' known lists must name exactly these,
  // so a newly declared command or flag joins the battery.
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      commands = {
          {"load", {"--input=x.dimacs", "--spec=grid:side=4,seed=1"}},
          {"reconfigure", {"--edits=0:5", "--seed=1", "--scale=2"}},
          {"solve",
           {"--solver=dinic", "--check", "--scratch", "--deadline-ms=0",
            "--shards=2", "--threads=1"}},
          {"batch",
           {"--spec=grid:side=4,seed=1", "--solver=dinic", "--check",
            "--delta", "--deadline-ms=0"}},
          {"sweep", {"--points=2", "--vmax=5", "--deadline-ms=0"}},
          {"mincut", {"--deadline-ms=0"}},
          {"deadline", {"--ms=0"}},
          {"session", {}},
          {"stats", {}},
          {"quit", {}},
          {"shutdown", {}},
      };
  std::string names;
  for (const auto& row : commands)
    names += (names.empty() ? "" : " ") + row.first;
  EXPECT_EQ(known_list(expect_refused("frobnicate")), names);

  for (const auto& [cmd, flags] : commands) {
    std::string declared;
    for (const std::string& f : flags)
      declared += (declared.empty() ? "" : " ") + f.substr(0, f.find('='));
    EXPECT_EQ(known_list(expect_refused(cmd + " --bogus")),
              declared.empty() ? "none" : declared)
        << cmd;
    expect_refused(cmd + " extra");
    for (const std::string& f : flags) {
      const size_t eq = f.find('=');
      const std::string name = f.substr(0, eq);
      const std::string given =
          eq == std::string::npos ? name : name + " " + f.substr(eq + 1);
      expect_refused(cmd + " " + given + " " + given);
      if (eq == std::string::npos) continue;
      expect_refused(cmd + " " + name);
      expect_refused(cmd + " " + name + " --check");
      const std::string value = f.substr(eq + 1);
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      if (*end == '\0') expect_refused(cmd + " " + name + " 2x");
    }
  }
  EXPECT_FALSE(engine.done());
  EXPECT_FALSE(engine.shutdown_requested());
}
