// aflow — command-line front end for the solver engine.
//
//   aflow solvers
//   aflow solve --solver dinic --input x.dimacs [--check] [--expect-flow V]
//   aflow solve --shards K --input huge.dimacs [--region-solver NAME]
//               [--threads N] [--seed S] [--check]
//   aflow gen --spec "gridflow:height=1000,width=1000,cap=64,seed=3"
//             --output huge.dimacs
//   aflow bench --solver push_relabel --batch "grid:side=31,count=64,seed=1"
//               [--threads N] [--deterministic] [--check] [--per-instance]
//               [--json FILE]
//
// `solve --shards K` is the huge-instance path (DESIGN.md "Sharded solve"):
// the input is read into its flat edge list, then k-way region
// decomposition, parallel region solves, and an exact refinement pass.
// `gen` writes a generator spec as a DIMACS file; the gridflow kind streams
// in O(1) memory, so generating a million-node instance costs no RAM.
//
//   aflow serve [--solver NAME] [--threads N] [--deterministic]
//               [--pool-budget-mb M] [--listen PATH] [--tcp HOST:PORT]
//               [--max-sessions N] [--max-line-bytes B] [--io-threads N]
//               [--front-workers N] [--max-pipeline N] [--deadline-ms N]
//               [--fallback NAME] [--faults SCHEDULE]
//
// `--deadline-ms` sets the default per-request deadline every session
// inherits (0 = none); `--fallback` names the digital backend retryable
// analog failures degrade to (empty disables the rung). `--faults` (or the
// AFLOW_FAULTS environment variable) arms the deterministic fault-injection
// schedule documented in src/util/fault_injector.hpp — the chaos battery's
// entry point into a release binary.
//
// `--batch` accepts a DIMACS file, a directory of *.dimacs / *.max files, or
// a generator spec (see src/core/workload.hpp for the grammar). `--json`
// writes a machine-readable report (schema aflow-bench-v1: solver, instance
// shapes, wall ms, iteration counts, refactor/warm shares) for perf-trend
// tracking in CI. `serve` starts the long-running serving mode: newline-
// delimited requests on stdin (one session), or — with `--listen PATH`
// (alias `--socket`) and/or `--tcp HOST:PORT` (port 0 = kernel-assigned;
// the bound port is printed on stderr) — an event-driven front accepting up
// to `--max-sessions` concurrent client sessions over shared solver banks;
// one aflow-serve-v1 JSON response per line either way. `--io-threads`,
// `--front-workers`, and `--max-pipeline` size the front's I/O plane,
// worker pool, and per-session pipelining limit (see
// core/serve_front.hpp). Both schemas are documented in
// docs/BENCH_FORMAT.md.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/registry.hpp"
#include "core/serve_engine.hpp"
#include "core/sharded_solver.hpp"
#include "core/serve_front.hpp"
#include "core/workload.hpp"
#include "graph/dimacs.hpp"
#include "util/args.hpp"
#include "util/fault_injector.hpp"
#include "util/json.hpp"

namespace {

using namespace aflow;
using util::arg_flag;
using util::arg_int;
using util::arg_string;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  aflow solvers\n"
      "  aflow solve --solver NAME --input FILE.dimacs [--check] "
      "[--expect-flow V]\n"
      "  aflow solve --shards K --input FILE.dimacs [--region-solver NAME]\n"
      "              [--threads N] [--seed S] [--check] [--expect-flow V]\n"
      "  aflow gen --spec GENSPEC --output FILE.dimacs\n"
      "  aflow bench --solver NAME --batch SPEC_OR_PATH [--threads N]\n"
      "              [--deterministic] [--check] [--per-instance] "
      "[--json FILE]\n"
      "  aflow serve [--solver NAME] [--threads N] [--deterministic]\n"
      "              [--pool-budget-mb M] [--listen PATH] [--tcp HOST:PORT]\n"
      "              [--max-sessions N] [--max-line-bytes B] "
      "[--io-threads N]\n"
      "              [--front-workers N] [--max-pipeline N] "
      "[--deadline-ms N]\n"
      "              [--fallback NAME] [--faults SCHEDULE]\n");
  return 2;
}

/// Machine-readable batch report (schema aflow-bench-v1), shared shape with
/// the gated benches so one consumer can track the whole perf trajectory.
void write_bench_json(const std::string& path, const std::string& batch,
                      const core::BatchOptions& options,
                      const std::vector<aflow::graph::FlowNetwork>& instances,
                      const core::BatchReport& report) {
  util::JsonWriter j;
  j.begin_object();
  j.field("schema", "aflow-bench-v1");
  j.field("bench", "aflow_cli");
  j.field("solver", options.solver);
  j.field("batch", batch);
  j.field("threads", report.threads_used);
  j.field("deterministic", options.deterministic);
  j.field("instances", report.outcomes.size());
  j.field("failed", report.failed);
  j.field("total_flow", report.total_flow);
  j.field("wall_ms", report.wall_seconds * 1e3);

  const flow::SolveMetrics& m = report.metrics;
  const double factors =
      static_cast<double>(m.full_factors + m.refactors);
  const double iters =
      static_cast<double>(m.warm_iterations + m.cold_iterations);
  j.key("metrics").begin_object();
  core::write_metrics_fields(j, m);
  j.field("refactor_share",
          factors > 0.0 ? static_cast<double>(m.refactors) / factors : 0.0);
  j.field("warm_share",
          iters > 0.0 ? static_cast<double>(m.warm_iterations) / iters : 0.0);
  j.field("warm_started_instances", report.warm_started_instances);
  j.end_object();

  j.key("per_instance").begin_array();
  for (const core::InstanceOutcome& out : report.outcomes) {
    j.begin_object();
    j.field("index", out.index);
    j.field("ok", out.ok);
    if (out.index >= 0 && out.index < static_cast<int>(instances.size())) {
      j.field("vertices", instances[out.index].num_vertices());
      j.field("edges", instances[out.index].num_edges());
    }
    if (out.ok) {
      j.field("flow", out.result.flow_value);
      j.field("iterations", out.result.metrics.iterations);
      j.field("warm_started", out.result.metrics.warm_started);
    } else {
      j.field("error", out.error);
      core::write_error_info(j, out.error_info);
    }
    j.field("ms", out.seconds * 1e3);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  util::write_json_file(path, j.str());
}

int cmd_solvers() {
  for (const std::string& name : core::SolverRegistry::instance().names()) {
    const auto solver = core::SolverRegistry::instance().create(name);
    const auto caps = solver->capabilities();
    std::printf("%-18s %s%s\n", name.c_str(),
                caps.exact ? "exact" : "approximate",
                caps.analog ? ", analog substrate model" : "");
  }
  return 0;
}

/// `solve --shards K`: read the instance into its flat edge list (16 bytes
/// per edge) and run the sharded decomposition solver on it; the only
/// per-vertex structures are the partition's and the refinement
/// residual's.
int cmd_solve_sharded(int argc, char** argv, const std::string& input,
                      int shards) {
  core::ShardOptions options;
  options.shards = shards;
  options.region_solver =
      arg_string(argc, argv, "--region-solver", options.region_solver);
  options.num_threads = arg_int(argc, argv, "--threads", 0);
  options.seed = static_cast<std::uint64_t>(arg_int(argc, argv, "--seed", 1));

  const graph::FlowNetwork net = graph::read_dimacs_file(input);
  const core::ShardedSolver solver(options);
  core::ShardReport rep;
  const flow::MaxFlowResult result = solver.solve_csr(net, &rep);

  std::printf("instance:  %s (%d vertices, %d edges)\n", input.c_str(),
              net.num_vertices(), net.num_edges());
  std::printf("solver:    sharded (%d regions, region solver %s, %d threads)\n",
              rep.regions, options.region_solver.c_str(), rep.threads_used);
  std::printf("cut arcs:  %d (capacity %.10g)\n", rep.cut_arcs,
              rep.cut_capacity);
  std::printf("bound:     %.10g (pre-refinement upper bound)\n",
              rep.upper_bound);
  std::printf("stitched:  %.10g  refined: +%.10g\n", rep.stitched_value,
              rep.refined_added);
  std::printf("flow:      %.10g\n", result.flow_value);
  std::printf("ops:       %lld\n", result.operations);
  std::printf("stages:    partition %.3f ms, regions %.3f ms, stitch %.3f ms, "
              "refine %.3f ms\n",
              rep.partition_seconds * 1e3, rep.region_seconds * 1e3,
              rep.stitch_seconds * 1e3, rep.refine_seconds * 1e3);

  if (arg_flag(argc, argv, "--check")) {
    const std::string err = flow::check_flow(net, result);
    if (!err.empty()) {
      std::fprintf(stderr, "FAIL: %s\n", err.c_str());
      return 1;
    }
    std::printf("check:     feasible\n");
  }

  const std::string expect = arg_string(argc, argv, "--expect-flow", "");
  if (!expect.empty()) {
    const double want = std::stod(expect);
    if (std::abs(result.flow_value - want) > 1e-6 * std::max(1.0, want)) {
      std::fprintf(stderr, "FAIL: expected flow %.10g, got %.10g\n", want,
                   result.flow_value);
      return 1;
    }
  }
  return 0;
}

int cmd_solve(int argc, char** argv) {
  const std::string input = arg_string(argc, argv, "--input", "");
  if (input.empty()) return usage();

  const int shards = arg_int(argc, argv, "--shards", 0);
  if (shards >= 2) return cmd_solve_sharded(argc, argv, input, shards);

  const std::string solver_name = arg_string(argc, argv, "--solver", "dinic");

  const graph::FlowNetwork net = graph::read_dimacs_file(input);
  const auto solver = core::SolverRegistry::instance().create(solver_name);
  const flow::MaxFlowResult result = solver->solve(net);

  std::printf("instance: %s (%d vertices, %d edges)\n", input.c_str(),
              net.num_vertices(), net.num_edges());
  std::printf("solver:   %s\n", solver->name().c_str());
  std::printf("flow:     %.10g\n", result.flow_value);
  std::printf("ops:      %lld\n", result.operations);

  if (arg_flag(argc, argv, "--check")) {
    const std::string err = flow::check_flow(net, result);
    if (!err.empty()) {
      std::fprintf(stderr, "FAIL: %s\n", err.c_str());
      return 1;
    }
    std::printf("check:    feasible\n");
  }

  const std::string expect = arg_string(argc, argv, "--expect-flow", "");
  if (!expect.empty()) {
    const double want = std::stod(expect);
    if (std::abs(result.flow_value - want) > 1e-6 * std::max(1.0, want)) {
      std::fprintf(stderr, "FAIL: expected flow %.10g, got %.10g\n", want,
                   result.flow_value);
      return 1;
    }
  }
  return 0;
}

int cmd_gen(int argc, char** argv) {
  const std::string spec = arg_string(argc, argv, "--spec", "");
  const std::string output = arg_string(argc, argv, "--output", "");
  if (spec.empty() || output.empty()) return usage();
  core::write_spec_dimacs(spec, output);
  std::printf("wrote %s (%s)\n", output.c_str(), spec.c_str());
  return 0;
}

int cmd_bench(int argc, char** argv) {
  const std::string batch = arg_string(argc, argv, "--batch", "");
  if (batch.empty()) return usage();

  core::BatchOptions options;
  options.solver = arg_string(argc, argv, "--solver", "dinic");
  options.num_threads = arg_int(argc, argv, "--threads", 0);
  options.deterministic = arg_flag(argc, argv, "--deterministic");
  options.validate = arg_flag(argc, argv, "--check");

  const auto instances = core::load_batch(batch);
  const core::BatchReport report = core::BatchEngine(options).run(instances);

  if (arg_flag(argc, argv, "--per-instance")) {
    for (const core::InstanceOutcome& out : report.outcomes) {
      if (out.ok)
        std::printf("[%4d] flow %.10g  (%.3f ms)\n", out.index,
                    out.result.flow_value, out.seconds * 1e3);
      else
        std::printf("[%4d] FAILED: %s\n", out.index, out.error.c_str());
    }
  }

  double solve_seconds = 0.0;
  for (const core::InstanceOutcome& out : report.outcomes)
    solve_seconds += out.seconds;
  std::printf("batch:      %s\n", batch.c_str());
  std::printf("solver:     %s\n", options.solver.c_str());
  std::printf("instances:  %zu (%d failed)\n", report.outcomes.size(),
              report.failed);
  std::printf("threads:    %d\n", report.threads_used);
  std::printf("total flow: %.10g\n", report.total_flow);
  std::printf("wall:       %.3f ms  (sum of per-instance solves: %.3f ms)\n",
              report.wall_seconds * 1e3, solve_seconds * 1e3);
  if (report.wall_seconds > 0.0)
    std::printf("throughput: %.1f instances/s\n",
                static_cast<double>(report.outcomes.size()) /
                    report.wall_seconds);
  if (report.metrics.warm_iterations + report.metrics.cold_iterations > 0)
    std::printf("warm-start: %d/%zu instances, %lld warm / %lld cold "
                "iterations\n",
                report.warm_started_instances, report.outcomes.size(),
                report.metrics.warm_iterations, report.metrics.cold_iterations);

  const std::string json_path = arg_string(argc, argv, "--json", "");
  if (!json_path.empty()) {
    write_bench_json(json_path, batch, options, instances, report);
    std::printf("json:       %s\n", json_path.c_str());
  }
  return report.failed == 0 ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  core::ServeOptions options;
  options.default_solver =
      arg_string(argc, argv, "--solver", options.default_solver);
  options.num_threads = arg_int(argc, argv, "--threads", 0);
  options.deterministic = arg_flag(argc, argv, "--deterministic");
  options.max_sessions =
      arg_int(argc, argv, "--max-sessions", options.max_sessions);
  const double budget_mb = util::arg_double(argc, argv, "--pool-budget-mb", 64.0);
  options.pool_byte_budget =
      budget_mb <= 0.0 ? 0 : static_cast<size_t>(budget_mb * (1 << 20));
  options.default_deadline_ms = arg_int(argc, argv, "--deadline-ms", 0);
  options.fallback_solver =
      arg_string(argc, argv, "--fallback", options.fallback_solver);

  // Chaos hook: arm the deterministic fault schedule before any worker
  // exists (FaultInjector::arm is not safe against concurrent fire()).
  // The flag wins over the environment variable.
  std::string faults = arg_string(argc, argv, "--faults", "");
  if (faults.empty())
    if (const char* env = std::getenv("AFLOW_FAULTS")) faults = env;
  if (!faults.empty()) {
    util::FaultInjector::instance().arm(faults);
    std::fprintf(stderr, "aflow serve: fault schedule armed: %s\n",
                 faults.c_str());
  }

  core::ServeEngine engine(options);

  // `--listen` is the multi-session socket front; `--socket` kept as the
  // PR-4 spelling of the same thing. `--tcp HOST:PORT` adds (or is) the
  // network transport — both listeners may run at once, sharing the one
  // event-driven front.
  const std::string socket_path = arg_string(
      argc, argv, "--listen", arg_string(argc, argv, "--socket", ""));
  const std::string tcp_address = arg_string(argc, argv, "--tcp", "");
  if (!socket_path.empty() || !tcp_address.empty()) {
#ifndef _WIN32
    core::ServeFrontOptions front_options;
    front_options.socket_path = socket_path;
    front_options.tcp_address = tcp_address;
    const int max_line = arg_int(argc, argv, "--max-line-bytes", 0);
    if (max_line > 0)
      front_options.max_line_bytes = static_cast<size_t>(max_line);
    front_options.io_threads =
        arg_int(argc, argv, "--io-threads", front_options.io_threads);
    front_options.workers =
        arg_int(argc, argv, "--front-workers", front_options.workers);
    front_options.max_pipeline =
        arg_int(argc, argv, "--max-pipeline", front_options.max_pipeline);
    core::ServeFront front(engine, front_options);
    front.start();
    if (!socket_path.empty())
      std::fprintf(stderr,
                   "aflow serve: listening on %s (up to %d concurrent "
                   "sessions; send 'shutdown' to stop)\n",
                   socket_path.c_str(), options.max_sessions);
    if (!tcp_address.empty())
      // The resolved port matters: with `--tcp HOST:0` the kernel picks
      // it, and harnesses read it off this line.
      std::fprintf(stderr,
                   "aflow serve: listening on tcp port %u (up to %d "
                   "concurrent sessions; send 'shutdown' to stop)\n",
                   static_cast<unsigned>(front.tcp_port()),
                   options.max_sessions);
    front.run();
    return 0;
#else
    std::fprintf(stderr,
                 "error: --listen/--tcp is not supported on this platform\n");
    return 1;
#endif
  }

  // stdin mode: one session, ended by quit/shutdown or EOF.
  std::string line;
  while (!engine.done() && std::getline(std::cin, line)) {
    const std::string response = engine.handle(line);
    if (response.empty()) continue;
    std::printf("%s\n", response.c_str());
    std::fflush(stdout);
  }
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "solvers") return cmd_solvers();
    if (cmd == "solve") return cmd_solve(argc, argv);
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "bench") return cmd_bench(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
