// Sharded-solve gate (core/sharded_solver.hpp), on the PR's headline
// scenario: one huge instance, solved in k regions with exact boundary
// refinement (see DESIGN.md "Sharded solve").
//
// The bench writes a gridflow instance to a DIMACS file, then runs two
// pipelines in one process, both on the one graph type (a FlowNetwork read
// by graph::read_dimacs_file):
//
//   sharded: read the file, partition into --shards regions, solve them
//            through the BatchEngine worker pool, stitch + repair + refine;
//   direct:  read the file again and solve it cold with single-thread Dinic.
//
// Asserts
//   (a) flow-value identity to 1e-9 and a feasible sharded flow
//       (flow::check_flow),
//   (b) engagement: the partition produced --shards regions with a
//       non-empty cut manifest, and the pre-refinement bound brackets the
//       flow (upper_bound >= flow >= stitched_value >= 0),
//   (c) the parallel region-solve stage beats a whole single-thread direct
//       dinic by >= --min-speedup (default 2x): the region subproblems are
//       small enough that even their *sequential* sum undercuts the direct
//       solve, and the stage divides across BatchEngine workers (on the
//       1M-node grid, 2.1 s of push-relabel region solves against 320 s of
//       direct dinic on a 4-core x86-64 host). The end-to-end speedup is
//       reported but not gated — at this scale the sequential stitch repair
//       dominates (2.0x end-to-end, 151 s of its 160 s in the stitch; see
//       the ROADMAP flow-path item),
//   (d) peak RSS of the sharded pipeline <= --rss-budget-mb (default 384;
//       the 1M-node grid measures 313 MB on a 4-core x86-64 host). The
//       sharded pipeline runs first, so its VmHWM reading is
//       uncontaminated; the direct pipeline's second copy of the graph and
//       its dinic residual then push VmHWM to 352 MB, which the report
//       surfaces as the baseline's overhead.
//
//   bench_sharded [--height 1000] [--width 1000] [--cap 64] [--seed 7]
//                 [--shards 8] [--threads 0] [--min-speedup 2.0]
//                 [--rss-budget-mb 384]
//                 [--dimacs FILE] [--smoke] [--json FILE]
//
// --smoke shrinks the grid and drops the wall-clock and RSS gates (CI
// machines are noisy and small) while keeping the value-identity,
// feasibility and engagement assertions.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_util.hpp"
#include "core/sharded_solver.hpp"
#include "flow/maxflow.hpp"
#include "graph/dimacs.hpp"
#include "graph/generators.hpp"
#include "util/json.hpp"

using namespace aflow;

namespace {

/// Peak resident set (VmHWM) in MB, from /proc/self/status; 0 when the
/// proc interface is unavailable (non-Linux), which disables the RSS gate.
double peak_rss_mb() {
  std::ifstream st("/proc/self/status");
  std::string line;
  while (std::getline(st, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB -> MB
  return 0.0;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

} // namespace

int main(int argc, char** argv) {
  const util::Flag flags[] = {
      {"--smoke"}, {"--height", "N"}, {"--width", "N"}, {"--cap", "C"},
      {"--seed", "S"}, {"--shards", "K"}, {"--threads", "N"},
      {"--min-speedup", "X"}, {"--rss-budget-mb", "MB"}, {"--json", "FILE"},
      {"--dimacs", "FILE"}};
  const util::Args args = util::parse_argv(argv[0], flags, argc, argv);
  const bool smoke = args.has("--smoke");
  const int height = args.number("--height", smoke ? 120 : 1000);
  const int width = args.number("--width", smoke ? 120 : 1000);
  const int cap = args.number("--cap", 64);
  const int seed = args.number("--seed", 7);
  const int shards = args.number("--shards", smoke ? 4 : 8);
  const int threads = args.number("--threads", 0);
  const double min_speedup = args.number("--min-speedup", smoke ? 0.0 : 2.0);
  const double rss_budget_mb =
      args.number("--rss-budget-mb", smoke ? 0.0 : 384.0);
  const std::string json_path = args.string("--json", "");
  std::string dimacs = args.string("--dimacs", "");
  const bool keep_dimacs = !dimacs.empty();
  if (dimacs.empty())
    dimacs = (std::filesystem::temp_directory_path() /
              "aflow_bench_sharded.dimacs")
                 .string();

  bench::banner("Sharded solve: k-way region decomposition with exact "
                "boundary refinement, read from disk");

  {
    std::ofstream out(dimacs);
    graph::write_gridflow_dimacs(out, height, width, cap,
                                 static_cast<std::uint64_t>(seed));
  }
  std::printf("instance: gridflow %dx%d cap=%d seed=%d -> %s (%.1f MB on "
              "disk)\n\n",
              height, width, cap, seed, dimacs.c_str(),
              static_cast<double>(std::filesystem::file_size(dimacs)) / 1e6);

  // --- Sharded pipeline first: its VmHWM reading is the gated one. -------
  core::ShardOptions opt;
  opt.shards = shards;
  opt.num_threads = threads;
  core::ShardReport rep;
  const auto sharded_t0 = std::chrono::steady_clock::now();
  const graph::FlowNetwork g = graph::read_dimacs_file(dimacs);
  const double stream_s = seconds_since(sharded_t0);
  const auto solve_t0 = std::chrono::steady_clock::now();
  const flow::MaxFlowResult sharded =
      core::ShardedSolver(opt).solve_csr(g, &rep);
  const double sharded_s = seconds_since(solve_t0);
  const double rss_sharded = peak_rss_mb();

  std::printf("sharded   %d regions (push_relabel, %d threads): flow %.6g "
              "in %.3f s (+%.3f s reading)\n",
              rep.regions, rep.threads_used,
              sharded.flow_value, sharded_s, stream_s);
  std::printf("          cut arcs %d (cap %.6g), bound %.6g, stitched "
              "%.6g + refined %.6g\n",
              rep.cut_arcs, rep.cut_capacity,
              rep.upper_bound, rep.stitched_value, rep.refined_added);
  std::printf("          stages: partition %.3f s, regions %.3f s, stitch "
              "%.3f s, refine %.3f s; peak RSS %.1f MB\n",
              rep.partition_seconds, rep.region_seconds, rep.stitch_seconds,
              rep.refine_seconds, rss_sharded);

  const std::string feasible =
      flow::check_flow(g, sharded, 1e-6 * std::max(1.0, sharded.flow_value));

  // --- Direct pipeline: the in-memory FlowNetwork baseline. --------------
  const auto direct_t0 = std::chrono::steady_clock::now();
  const graph::FlowNetwork net = graph::read_dimacs_file(dimacs);
  const double read_s = seconds_since(direct_t0);
  const auto dinic_t0 = std::chrono::steady_clock::now();
  const flow::MaxFlowResult direct = flow::dinic(net);
  const double direct_s = seconds_since(dinic_t0);
  const double rss_direct = peak_rss_mb();

  std::printf("direct    single-thread dinic: flow %.6g in %.3f s (+%.3f s "
              "reading); peak RSS %.1f MB (+%.1f over sharded)\n\n",
              direct.flow_value, direct_s, read_s, rss_direct,
              rss_direct - rss_sharded);

  const double speedup = sharded_s > 0.0 ? direct_s / sharded_s : 0.0;
  const double region_speedup =
      rep.region_seconds > 0.0 ? direct_s / rep.region_seconds : 0.0;
  const bool region_gated = !smoke;
  const bool rss_gated = !smoke && rss_budget_mb > 0.0 && rss_sharded > 0.0;

  bool ok = true;
  bool value_ok = true;
  const double scale = std::max(1.0, std::abs(direct.flow_value));
  if (std::abs(sharded.flow_value - direct.flow_value) > 1e-9 * scale) {
    value_ok = false;
    std::fprintf(stderr, "FAIL: flow differs (%.17g sharded vs %.17g direct)\n",
                 sharded.flow_value, direct.flow_value);
    ok = false;
  }
  if (!feasible.empty()) {
    std::fprintf(stderr, "FAIL: sharded flow infeasible: %s\n",
                 feasible.c_str());
    value_ok = false;
  }
  ok = ok && value_ok;
  if (rep.regions != shards || rep.cut_arcs <= 0) {
    std::fprintf(stderr,
                 "FAIL: partition did not engage (%d regions, %d cut arcs)\n",
                 rep.regions, rep.cut_arcs);
    ok = false;
  }
  if (rep.upper_bound < sharded.flow_value - 1e-9 * scale ||
      rep.stitched_value < 0.0 ||
      sharded.flow_value < rep.stitched_value - 1e-9 * scale) {
    std::fprintf(stderr,
                 "FAIL: bound ordering violated (bound %.17g, flow %.17g, "
                 "stitched %.17g)\n",
                 rep.upper_bound, sharded.flow_value, rep.stitched_value);
    ok = false;
  }
  std::printf("region stage vs direct: %.2fx (%d threads; gate %.2fx%s); "
              "end-to-end: %.2fx (reported, not gated)\n",
              region_speedup, rep.threads_used, min_speedup,
              region_gated ? "" : ", smoke: reported only", speedup);
  if (region_gated && min_speedup > 0.0 && region_speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: region-stage speedup %.2fx below gate %.2fx\n",
                 region_speedup, min_speedup);
    ok = false;
  }
  if (rss_gated && rss_sharded > rss_budget_mb) {
    std::fprintf(stderr, "FAIL: sharded peak RSS %.1f MB over budget %.1f MB\n",
                 rss_sharded, rss_budget_mb);
    ok = false;
  }

  util::JsonWriter j;
  j.begin_object();
  j.field("schema", "aflow-bench-v1");
  j.field("bench", "sharded");
  j.field("smoke", smoke);
  j.field("height", height);
  j.field("width", width);
  j.field("vertices", g.num_vertices());
  j.field("edges", g.num_edges());
  j.field("shards", shards);
  j.field("region_solver", "push_relabel");
  j.field("threads_used", rep.threads_used);
  j.field("flow", sharded.flow_value);
  j.field("upper_bound", rep.upper_bound);
  j.field("stitched_value", rep.stitched_value);
  j.field("refined_added", rep.refined_added);
  j.field("cut_arcs", rep.cut_arcs);
  j.field("cut_capacity", rep.cut_capacity);
  j.field("wall_s_stream", stream_s);
  j.field("wall_s_sharded", sharded_s);
  j.field("wall_s_partition", rep.partition_seconds);
  j.field("wall_s_regions", rep.region_seconds);
  j.field("wall_s_stitch", rep.stitch_seconds);
  j.field("wall_s_refine", rep.refine_seconds);
  j.field("wall_s_direct_read", read_s);
  j.field("wall_s_direct", direct_s);
  j.field("rss_sharded_mb", rss_sharded);
  j.field("rss_direct_mb", rss_direct);
  j.key("gates").begin_array();
  bench::json_gate(j, "sharded_value_identity", true, value_ok ? 1.0 : 0.0,
                   1.0);
  bench::json_gate(j, "sharded_regions_vs_direct", region_gated,
                   region_speedup, min_speedup);
  // RSS gate reuses the speedup record shape: "speedup" = budget / peak, so
  // pass means the sharded pipeline fit with headroom >= 1.
  bench::json_gate(j, "sharded_rss_budget", rss_gated,
                   rss_sharded > 0.0 ? rss_budget_mb / rss_sharded : 0.0, 1.0);
  j.end_array();
  j.end_object();
  if (!json_path.empty()) {
    util::write_json_file(json_path, j.str());
    std::printf("json: %s\n", json_path.c_str());
  }

  if (!keep_dimacs) std::filesystem::remove(dimacs);
  return ok ? 0 : 1;
}
