#include "core/sharded_solver.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "arch/partition.hpp"
#include "core/batch_engine.hpp"
#include "flow/residual.hpp"
#include "util/fault_injector.hpp"

namespace aflow::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int local_id(const std::vector<int>& region_vertices, int v) {
  // Region vertex lists are ascending (partition_regions builds them by a
  // vertex-order sweep), so a binary search replaces the n-sized
  // global->local scratch array a million-vertex make() would otherwise
  // allocate per worker.
  const auto it =
      std::lower_bound(region_vertices.begin(), region_vertices.end(), v);
  return static_cast<int>(it - region_vertices.begin());
}

} // namespace

ShardedSolver::ShardedSolver(ShardOptions options)
    : options_(std::move(options)) {
  if (options_.shards < 1)
    throw std::invalid_argument("ShardedSolver: shards must be >= 1");
}

SolverCapabilities ShardedSolver::capabilities() const { return {}; }

flow::MaxFlowResult ShardedSolver::solve(const graph::FlowNetwork& net,
                                         const CancelToken& cancel) const {
  return solve_csr(net, nullptr, cancel);
}

flow::MaxFlowResult ShardedSolver::solve_csr(const graph::FlowNetwork& g,
                                             ShardReport* report,
                                             const CancelToken& cancel) const {
  const int n = g.num_vertices();
  const int m = g.num_edges();
  const int s = g.source();
  const int t = g.sink();
  const int k = std::min(options_.shards, n);
  // Capacity leaving s and entering t: the trivial max-flow bound pair.
  double source_out = 0.0, sink_in = 0.0;
  for (const graph::Edge& e : g.edges()) {
    if (e.from == s) source_out += e.capacity;
    if (e.to == t) sink_in += e.capacity;
  }
  const double trivial_bound = std::min(source_out, sink_in);

  ShardReport local_report;
  ShardReport& rep = report ? *report : local_report;
  rep = ShardReport{};

  flow::MaxFlowResult result;
  if (k < 2) {
    // Degenerate shard count: one region is just the direct solve.
    rep.regions = 1;
    rep.region_vertices = {n};
    rep.upper_bound = trivial_bound;
    const auto t0 = Clock::now();
    result = flow::push_relabel(g, cancel);
    rep.refine_seconds = seconds_since(t0);
    rep.refine_operations = result.operations;
    rep.flow_value = result.flow_value;
    rep.refined_added = result.flow_value;
    return result;
  }

  // --- Partition ---------------------------------------------------------
  cancel.check();
  const auto partition_t0 = Clock::now();
  arch::RegionPartitionOptions popt;
  popt.regions = k;
  popt.seed = options_.seed;
  const arch::RegionPartition part = arch::partition_regions(g, popt);
  rep.regions = part.num_regions;
  for (const auto& verts : part.vertices)
    rep.region_vertices.push_back(static_cast<int>(verts.size()));
  rep.cut_arcs = static_cast<int>(part.cut_arcs.size());
  rep.cut_capacity = part.cut_capacity;

  // Pre-refinement optimality bound: contract every region to one vertex
  // (keeping the cut arcs) and max-flow the k-node quotient. Contraction
  // only removes conservation constraints, so its max flow dominates the
  // true one; the trivial terminal bound covers the s-and-t-in-one-region
  // case, where the quotient has no s-t separation to measure.
  rep.upper_bound = trivial_bound;
  if (part.region[s] != part.region[t] && !part.cut_arcs.empty()) {
    graph::FlowNetwork quotient(part.num_regions, part.region[s],
                                part.region[t]);
    for (const int e : part.cut_arcs)
      quotient.add_edge(part.region[g.edge(e).from],
                        part.region[g.edge(e).to], g.edge(e).capacity);
    rep.upper_bound =
        std::min(rep.upper_bound, flow::dinic(quotient, cancel).flow_value);
  }
  rep.partition_seconds = seconds_since(partition_t0);
  cancel.check();

  // --- Parallel region solves -------------------------------------------
  // Region r's subproblem: its induced subgraph plus a super source S_r and
  // super sink T_r. Every cut arc is represented individually — an incoming
  // cut arc (u -> v, v in r) becomes S_r -> v at the arc's capacity, an
  // outgoing one becomes u -> T_r — so each region votes a flow for each of
  // its incident cut arcs. s and t, where present, are wired to their
  // region's super terminals at the trivial-bound capacities.
  const auto region_t0 = Clock::now();
  std::vector<std::vector<int>> internal(
      static_cast<size_t>(part.num_regions));
  {
    std::vector<int> count(static_cast<size_t>(part.num_regions), 0);
    for (const graph::Edge& e : g.edges()) {
      const int r = part.region[e.from];
      if (r == part.region[e.to]) ++count[static_cast<size_t>(r)];
    }
    for (int r = 0; r < part.num_regions; ++r)
      internal[static_cast<size_t>(r)].reserve(
          static_cast<size_t>(count[static_cast<size_t>(r)]));
  }
  std::vector<std::vector<int>> in_slots(
      static_cast<size_t>(part.num_regions)),
      out_slots(static_cast<size_t>(part.num_regions));
  for (int e = 0; e < m; ++e) {
    const int ru = part.region[g.edge(e).from];
    const int rv = part.region[g.edge(e).to];
    if (ru == rv) internal[static_cast<size_t>(ru)].push_back(e);
  }
  for (size_t slot = 0; slot < part.cut_arcs.size(); ++slot) {
    const int e = part.cut_arcs[slot];
    out_slots[static_cast<size_t>(part.region[g.edge(e).from])].push_back(
        static_cast<int>(slot));
    in_slots[static_cast<size_t>(part.region[g.edge(e).to])].push_back(
        static_cast<int>(slot));
  }

  std::vector<double> flow(static_cast<size_t>(m), 0.0);
  std::vector<double> cut_out(part.cut_arcs.size(), 0.0);
  std::vector<double> cut_in(part.cut_arcs.size(), 0.0);
  std::vector<long long> region_ops(static_cast<size_t>(part.num_regions), 0);

  const double s_supply = std::max(source_out, 1.0);
  const double t_drain = std::max(sink_in, 1.0);

  const auto make = [&](int r) {
    // Chaos battery: "shard.region:throw" / ":delay" faults the region
    // subproblem build, which the worker's failure isolation catches like
    // any region-solve failure — the ladder below then retries.
    util::FaultInjector::instance().fire("shard.region", &cancel);
    const auto& verts = part.vertices[static_cast<size_t>(r)];
    const int nr = static_cast<int>(verts.size());
    graph::FlowNetwork net(nr + 2, nr, nr + 1); // S_r = nr, T_r = nr + 1
    for (const int e : internal[static_cast<size_t>(r)])
      net.add_edge(local_id(verts, g.edge(e).from),
                   local_id(verts, g.edge(e).to), g.edge(e).capacity);
    for (const int slot : in_slots[static_cast<size_t>(r)]) {
      const graph::Edge& e = g.edge(part.cut_arcs[static_cast<size_t>(slot)]);
      net.add_edge(nr, local_id(verts, e.to), e.capacity);
    }
    for (const int slot : out_slots[static_cast<size_t>(r)]) {
      const graph::Edge& e = g.edge(part.cut_arcs[static_cast<size_t>(slot)]);
      net.add_edge(local_id(verts, e.from), nr + 1, e.capacity);
    }
    if (part.region[s] == r) net.add_edge(nr, local_id(verts, s), s_supply);
    if (part.region[t] == r) net.add_edge(local_id(verts, t), nr + 1, t_drain);
    return net;
  };

  // Scatter one region's solution into the global arrays. Regions own
  // disjoint slots (a cut arc's tail vote belongs to the tail region only,
  // the head vote to the head region), so concurrent consumes never touch
  // the same element.
  const auto consume = [&](InstanceOutcome& out) {
    const int r = out.index;
    const std::vector<double>& ef = out.result.edge_flow;
    size_t j = 0;
    for (const int e : internal[static_cast<size_t>(r)])
      flow[static_cast<size_t>(e)] = ef[j++];
    for (const int slot : in_slots[static_cast<size_t>(r)])
      cut_in[static_cast<size_t>(slot)] = ef[j++];
    for (const int slot : out_slots[static_cast<size_t>(r)])
      cut_out[static_cast<size_t>(slot)] = ef[j++];
    region_ops[static_cast<size_t>(r)] = out.result.operations;
  };

  BatchOptions bo;
  bo.solver = "push_relabel"; // the kernel the refinement runs too
  bo.num_threads = options_.num_threads;
  bo.deterministic = options_.deterministic;
  bo.cancel = cancel;
  const BatchReport batch =
      BatchEngine(bo).run_streamed(part.num_regions, make, consume);
  rep.threads_used = batch.threads_used;

  // Degradation ladder, region rung: a failed region solve no longer fails
  // the whole sharded solve. Each failed region is retried on this thread
  // up to region_retries times, then re-solved once more as the direct
  // rung; only when the direct rung fails too (or the solve is being
  // cancelled) does the failure propagate.
  const auto resolve_region = [&](int index) {
    InstanceOutcome out;
    out.index = index;
    const graph::FlowNetwork net = make(index);
    net.validate();
    out.result = flow::push_relabel(net, cancel);
    consume(out);
  };
  if (batch.failed > 0) {
    for (const InstanceOutcome& out : batch.outcomes) {
      if (out.ok) continue;
      cancel.check(); // a cancelled solve must not burn retries
      bool recovered = false;
      for (int a = 0; a < options_.region_retries && !recovered; ++a) {
        ++rep.region_retries;
        try {
          resolve_region(out.index);
          recovered = true;
        } catch (const util::CancelledError&) {
          throw;
        } catch (const std::exception&) {
          // retry again, or fall through to the direct rung
        }
      }
      if (!recovered) {
        ++rep.region_direct_solves;
        try {
          resolve_region(out.index);
        } catch (const util::CancelledError&) {
          throw;
        } catch (const std::exception& e) {
          throw std::runtime_error("ShardedSolver: region " +
                                   std::to_string(out.index) +
                                   " solve failed: " + out.error +
                                   " (direct re-solve also failed: " +
                                   e.what() + ")");
        }
      }
    }
  }
  for (const long long ops : region_ops) rep.region_operations += ops;
  rep.region_seconds = seconds_since(region_t0);
  cancel.check();

  // --- Stitch + conservation repair -------------------------------------
  // A cut arc carries the smaller of its two regions' votes: never above
  // capacity, and never more than either endpoint region routed. The
  // resulting pseudo-flow is capacity-feasible but violates conservation at
  // boundary vertices wherever the votes were clipped — exactly the
  // imbalance shape the shared repair machinery drains.
  const auto stitch_t0 = Clock::now();
  for (size_t slot = 0; slot < part.cut_arcs.size(); ++slot)
    flow[static_cast<size_t>(part.cut_arcs[slot])] =
        std::min(cut_out[slot], cut_in[slot]);
  cut_out = std::vector<double>();
  cut_in = std::vector<double>();

  flow::detail::Residual r(g, flow, cancel);
  flow = std::vector<double>();
  rep.stitched_value =
      flow::detail::repair_conservation(r, s, t, rep.repair_operations, cancel)
          ? r.flow_value_at(g, s)
          : -1.0;
  if (rep.stitched_value < 0.0) {
    // Degenerate stitch: repair failed, or the region solutions routed more
    // flow into the source than out of it (paths traversing s inside its
    // own region), leaving a worse-than-empty carry. Drop it entirely —
    // exactness is untouched, refinement just starts from zero flow (a
    // direct solve).
    r = flow::detail::Residual(g, cancel);
    rep.stitched_value = 0.0;
  }
  rep.stitch_seconds = seconds_since(stitch_t0);

  // --- Exact refinement on the full residual -----------------------------
  // The same push-relabel pass as a cold solve, flooding from the stitched
  // flow.
  const auto refine_t0 = Clock::now();
  rep.refine_operations =
      flow::detail::push_relabel_augment(r, s, t, cancel, &result.metrics);
  rep.refine_seconds = seconds_since(refine_t0);

  result.flow_value = r.flow_value_at(g, s);
  result.edge_flow = r.edge_flows(g);
  result.operations =
      rep.region_operations + rep.repair_operations + rep.refine_operations;
  result.metrics.fallback_region_retries = rep.region_retries;
  result.metrics.fallback_region_direct = rep.region_direct_solves;
  rep.flow_value = result.flow_value;
  rep.refined_added = result.flow_value - rep.stitched_value;
  return result;
}

} // namespace aflow::core
