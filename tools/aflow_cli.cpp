// aflow — command-line front end for the solver engine. Every subcommand
// and its flags are one row of the command table at the bottom of this
// file; `aflow` alone prints the usage generated from it. `serve` speaks
// the request grammar of docs/BENCH_FORMAT.md "aflow-serve-v1".
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>
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

int cmd_solvers(const util::Args&) {
  for (const std::string& name : core::SolverRegistry::instance().names()) {
    const auto solver = core::SolverRegistry::instance().create(name);
    const auto caps = solver->capabilities();
    std::printf("%-18s %s%s\n", name.c_str(),
                caps.exact ? "exact" : "approximate",
                caps.analog ? ", analog substrate model" : "");
  }
  return 0;
}

/// `solve --shards K` (K >= 2): the sharded decomposition solver on the
/// instance's flat edge list (16 bytes per edge); the only per-vertex
/// structures are the partition's and the refinement residual's
/// (DESIGN.md "Sharded solve").
flow::MaxFlowResult solve_sharded(const core::ShardOptions& options,
                                  const graph::FlowNetwork& net,
                                  const std::string& input) {
  const core::ShardedSolver solver(options);
  core::ShardReport rep;
  flow::MaxFlowResult result = solver.solve_csr(net, &rep);

  std::printf("instance:  %s (%d vertices, %d edges)\n", input.c_str(),
              net.num_vertices(), net.num_edges());
  std::printf("solver:    sharded (%d regions, region solver push_relabel, "
              "%d threads)\n",
              rep.regions, rep.threads_used);
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
  return result;
}

int cmd_solve(const util::Args& a) {
  const std::string input = a.string("--input", "");
  if (input.empty()) a.refuse("solve needs --input FILE.dimacs");
  core::ShardOptions shard;
  shard.shards = a.number("--shards", 0);
  shard.num_threads = a.number("--threads", 0);
  shard.seed = a.number("--seed", shard.seed);
  const std::string solver_name = a.string("--solver", "dinic");
  const double want = a.number("--expect-flow", 0.0);

  const graph::FlowNetwork net = graph::read_dimacs_file(input);
  flow::MaxFlowResult result;
  if (shard.shards >= 2) {
    result = solve_sharded(shard, net, input);
  } else {
    const auto solver = core::SolverRegistry::instance().create(solver_name);
    result = solver->solve(net);
    std::printf("instance: %s (%d vertices, %d edges)\n", input.c_str(),
                net.num_vertices(), net.num_edges());
    std::printf("solver:   %s\n", solver->name().c_str());
    std::printf("flow:     %.10g\n", result.flow_value);
    std::printf("ops:      %lld\n", result.operations);
  }

  if (a.has("--check")) {
    const std::string err = flow::check_flow(net, result);
    if (!err.empty()) {
      std::fprintf(stderr, "FAIL: %s\n", err.c_str());
      return 1;
    }
    // The verdict lines up with the report's label column.
    std::printf("%-*sfeasible and maximum\n", shard.shards >= 2 ? 11 : 10,
                "check:");
  }
  if (a.has("--expect-flow") &&
      std::abs(result.flow_value - want) > 1e-6 * std::max(1.0, want)) {
    std::fprintf(stderr, "FAIL: expected flow %.10g, got %.10g\n", want,
                 result.flow_value);
    return 1;
  }
  return 0;
}

/// `gen`: writes a generator spec as a DIMACS file; the gridflow kind
/// streams in O(1) memory, so a million-node instance costs no RAM.
int cmd_gen(const util::Args& a) {
  const std::string spec = a.string("--spec", "");
  const std::string output = a.string("--output", "");
  if (spec.empty() || output.empty())
    a.refuse("gen needs --spec GENSPEC and --output FILE.dimacs");
  core::write_spec_dimacs(spec, output);
  std::printf("wrote %s (%s)\n", output.c_str(), spec.c_str());
  return 0;
}

/// `bench`: one BatchEngine run over `--batch`, which accepts a DIMACS
/// file, a directory of *.dimacs / *.max files, or a generator spec
/// (src/core/workload.hpp). `--json` writes the aflow-bench-v1 report.
int cmd_bench(const util::Args& a) {
  const std::string batch = a.string("--batch", "");
  if (batch.empty()) a.refuse("bench needs --batch SPEC_OR_PATH");

  core::BatchOptions options;
  options.solver = a.string("--solver", "dinic");
  options.num_threads = a.number("--threads", 0);
  options.deterministic = a.has("--deterministic");
  options.validate = a.has("--check");
  const std::string json_path = a.string("--json", "");

  const auto instances = core::load_batch(batch);
  const core::BatchReport report = core::BatchEngine(options).run(instances);

  if (a.has("--per-instance")) {
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

  if (!json_path.empty()) {
    write_bench_json(json_path, batch, options, instances, report);
    std::printf("json:       %s\n", json_path.c_str());
  }
  return report.failed == 0 ? 0 : 1;
}

/// `serve`: newline-delimited requests on stdin (one session), or, with
/// `--listen PATH` and/or `--tcp HOST:PORT` (port 0: kernel-assigned), the
/// event-driven front (core/serve_front.hpp) serving up to
/// `--max-sessions` concurrent sessions over shared solver banks.
int cmd_serve(const util::Args& a) {
  core::ServeOptions options;
  options.default_solver = a.string("--solver", options.default_solver);
  options.num_threads = a.number("--threads", 0);
  options.deterministic = a.has("--deterministic");
  options.max_sessions = a.number("--max-sessions", options.max_sessions);
  const double budget_mb = a.number("--pool-budget-mb", 64.0);
  options.pool_byte_budget =
      budget_mb <= 0.0 ? 0 : static_cast<size_t>(budget_mb * (1 << 20));
  options.default_deadline_ms = a.number("--deadline-ms", 0LL);
  if (options.default_deadline_ms < 0)
    a.refuse("--deadline-ms must be >= 0 (0 = no deadline)");
  options.fallback_solver = a.string("--fallback", options.fallback_solver);

  const std::string socket_path = a.string("--listen", "");
  const std::string tcp_address = a.string("--tcp", "");
  core::ServeFrontOptions front_options;
  front_options.socket_path = socket_path;
  front_options.tcp_address = tcp_address;
  const int max_line = a.number("--max-line-bytes", 0);
  if (max_line > 0) front_options.max_line_bytes = static_cast<size_t>(max_line);
  front_options.workers = a.number("--front-workers", front_options.workers);
  front_options.max_pipeline =
      a.number("--max-pipeline", front_options.max_pipeline);

  // Chaos hook: arm the deterministic fault schedule (the grammar is in
  // src/util/fault_injector.hpp) before any worker exists
  // (FaultInjector::arm is not safe against concurrent fire()). The flag
  // wins over the AFLOW_FAULTS environment variable.
  std::string faults = a.string("--faults", "");
  if (faults.empty())
    if (const char* env = std::getenv("AFLOW_FAULTS")) faults = env;
  if (!faults.empty()) {
    util::FaultInjector::instance().arm(faults);
    std::fprintf(stderr, "aflow serve: fault schedule armed: %s\n",
                 faults.c_str());
  }

  core::ServeEngine engine(options);

  // Both listeners may run at once, sharing the one event-driven front.
  if (!socket_path.empty() || !tcp_address.empty()) {
#ifndef _WIN32
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

/// The command table: each row is one subcommand, its handler and its
/// flags (a name plus a value label, or no label for a switch).
struct Command {
  std::string_view name;
  int (*run)(const util::Args&);
  std::vector<util::Flag> flags;
};

const Command kCommands[] = {
    {"solvers", cmd_solvers, {}},
    {"solve", cmd_solve,
     {{"--input", "FILE.dimacs"}, {"--solver", "NAME"}, {"--check"},
      {"--expect-flow", "V"}, {"--shards", "K"}, {"--threads", "N"},
      {"--seed", "S"}}},
    {"gen", cmd_gen, {{"--spec", "GENSPEC"}, {"--output", "FILE.dimacs"}}},
    {"bench", cmd_bench,
     {{"--batch", "SPEC_OR_PATH"}, {"--solver", "NAME"}, {"--threads", "N"},
      {"--deterministic"}, {"--check"}, {"--per-instance"}, {"--json", "FILE"}}},
    {"serve", cmd_serve,
     {{"--solver", "NAME"}, {"--threads", "N"}, {"--deterministic"},
      {"--pool-budget-mb", "M"}, {"--listen", "PATH"}, {"--tcp", "HOST:PORT"},
      {"--max-sessions", "N"}, {"--max-line-bytes", "B"},
      {"--front-workers", "N"}, {"--max-pipeline", "N"},
      {"--deadline-ms", "N"}, {"--fallback", "NAME"},
      {"--faults", "SCHEDULE"}}},
};

} // namespace

int main(int argc, char** argv) {
  const std::string_view cmd = argc >= 2 ? argv[1] : "";
  const auto row = std::ranges::find(kCommands, cmd, &Command::name);
  if (row == std::end(kCommands)) {
    if (argc >= 2) std::fprintf(stderr, "error: unknown command '%s'\n", argv[1]);
    std::fprintf(stderr, "usage:\n");
    for (const Command& c : kCommands)
      std::fprintf(stderr, "%s\n",
                   util::usage_line("  aflow " + std::string(c.name), c.flags)
                       .c_str());
    return 2;
  }
  try {
    return row->run(util::parse_argv("aflow " + std::string(row->name),
                                     row->flags, argc - 1, argv + 1));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
