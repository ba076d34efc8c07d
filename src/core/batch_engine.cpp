#include "core/batch_engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/registry.hpp"
#include "util/fault_injector.hpp"

namespace aflow::core {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The per-instance body behind every entry: the batch token's check, the
/// `batch.solve` fault site, FlowNetwork::validate, the solve and, with
/// BatchOptions::validate, check_flow. Any throw is isolated into `out`.
/// `net()` yields the instance (run_streamed builds it here, so a failed
/// build is isolated too).
template <typename Net, typename Solve>
void run_instance(const BatchOptions& options, InstanceOutcome& out,
                  Net&& net, Solve&& solve) {
  const auto t0 = Clock::now();
  try {
    options.cancel.check();
    util::FaultInjector::instance().fire("batch.solve", &options.cancel);
    decltype(auto) g = net();
    g.validate();
    out.result = solve(g);
    if (options.validate) {
      const std::string err = flow::check_flow(g, out.result);
      if (!err.empty()) throw std::runtime_error("flow check failed: " + err);
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
    out.error_info = classify_error(e);
  }
  out.seconds = seconds_since(t0);
}

void aggregate_outcomes(BatchReport& report) {
  for (const InstanceOutcome& out : report.outcomes) {
    if (out.ok) {
      report.total_flow += out.result.flow_value;
      report.metrics += out.result.metrics;
      if (out.result.metrics.warm_started) ++report.warm_started_instances;
    } else {
      ++report.failed;
    }
  }
}

/// The one fan-out behind run() and run_streamed(): up to solvers.size()
/// threads (thread t solves on solvers[t]) claim indices 0..count-1 from a
/// shared counter; index i solves `net(i)` through run_instance and hands
/// its outcome to `done`. Each thread writes only its claimed slots of the
/// pre-sized outcome vector. A thread that fails to start stops the
/// spawning: the threads that did start claim the remaining indices, or
/// the calling thread when none did, and threads_used counts the threads
/// that ran.
template <typename Net, typename Done>
BatchReport fan_out(const BatchOptions& options, int count,
                    std::span<const SolverPtr> solvers, Net&& net,
                    Done&& done) {
  BatchReport report;
  report.outcomes.resize(static_cast<size_t>(count));
  const auto batch_t0 = Clock::now();
  std::atomic<int> next{0};
  const auto worker = [&](int t) {
    const ISolver& solver = *solvers[static_cast<size_t>(t)];
    for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      InstanceOutcome& out = report.outcomes[static_cast<size_t>(i)];
      out.index = i;
      run_instance(
          options, out, [&]() -> decltype(auto) { return net(i); },
          [&](const graph::FlowNetwork& g) {
            return solver.solve(g, options.cancel);
          });
      done(out);
    }
  };

  std::vector<std::thread> pool;
  if (solvers.size() > 1) {
    pool.reserve(solvers.size());
    for (size_t t = 0; t < solvers.size(); ++t) {
      try {
        pool.emplace_back(worker, static_cast<int>(t));
      } catch (const std::exception&) {
        break; // std::system_error at the thread limit, or std::bad_alloc
      }
    }
  }
  if (pool.empty()) worker(0);
  for (std::thread& t : pool) t.join();
  report.threads_used = std::max(1, static_cast<int>(pool.size()));

  report.wall_seconds = seconds_since(batch_t0);
  aggregate_outcomes(report);
  return report;
}
} // namespace

BatchEngine::BatchEngine(BatchOptions options) : options_(std::move(options)) {}

int BatchEngine::resolve_threads(int n) const {
  if (options_.deterministic) return 1;
  int threads = options_.num_threads;
  if (threads <= 0)
    threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  return std::max(1, std::min(threads, std::max(1, n)));
}

BatchReport BatchEngine::run(
    const std::vector<graph::FlowNetwork>& instances) const {
  // Fail fast on an unknown solver before spinning up workers. Each worker
  // owns a solver instance, so backends never share state.
  const int n = static_cast<int>(instances.size());
  std::vector<SolverPtr> solvers;
  for (int t = resolve_threads(n); t > 0; --t)
    solvers.push_back(SolverRegistry::instance().create(options_.solver));
  return fan_out(
      options_, n, solvers,
      [&](int i) -> const graph::FlowNetwork& { return instances[i]; },
      [](InstanceOutcome&) {});
}

BatchReport BatchEngine::run(const std::vector<graph::FlowNetwork>& instances,
                             const SolverPtr& shared_solver,
                             int threads) const {
  if (!shared_solver)
    throw std::invalid_argument("BatchEngine::run: shared solver is null");
  const int n = static_cast<int>(instances.size());
  const std::vector<SolverPtr> solvers(
      static_cast<size_t>(std::min(resolve_threads(n), std::max(1, threads))),
      shared_solver);
  return fan_out(
      options_, n, solvers,
      [&](int i) -> const graph::FlowNetwork& { return instances[i]; },
      [](InstanceOutcome&) {});
}

BatchReport BatchEngine::run_streamed(
    int count, const std::function<graph::FlowNetwork(int)>& make,
    const std::function<void(InstanceOutcome&)>& consume) const {
  if (count < 0)
    throw std::invalid_argument("BatchEngine::run_streamed: negative count");
  if (!make || !consume)
    throw std::invalid_argument(
        "BatchEngine::run_streamed: make/consume must be callable");
  std::vector<SolverPtr> solvers;
  for (int t = resolve_threads(count); t > 0; --t)
    solvers.push_back(SolverRegistry::instance().create(options_.solver));
  return fan_out(options_, count, solvers, make, [&](InstanceOutcome& out) {
    if (out.ok) consume(out);
    // The consumer has scattered what it needs; keep the report light so
    // k huge regions never accumulate k huge flow vectors.
    out.result.edge_flow.clear();
    out.result.edge_flow.shrink_to_fit();
  });
}

InstanceOutcome BatchEngine::run_one(const graph::FlowNetwork& net,
                                     const SolverPtr& solver) const {
  if (!solver)
    throw std::invalid_argument("BatchEngine::run_one: solver is null");
  InstanceOutcome out;
  out.index = 0;
  run_instance(
      options_, out, [&]() -> const graph::FlowNetwork& { return net; },
      [&](const graph::FlowNetwork& g) {
        return solver->solve(g, options_.cancel);
      });
  return out;
}

InstanceOutcome BatchEngine::run_delta(const graph::FlowNetwork& net,
                                       const flow::CapacityDelta& delta,
                                       const flow::MaxFlowResult& prior,
                                       const SolverPtr& solver,
                                       flow::DeltaState& state) const {
  if (!solver)
    throw std::invalid_argument("BatchEngine::run_delta: solver is null");
  InstanceOutcome out;
  out.index = 0;
  run_instance(
      options_, out, [&]() -> const graph::FlowNetwork& { return net; },
      [&](const graph::FlowNetwork& g) {
        flow::MaxFlowResult r =
            solver->solve_delta(g, delta, prior, &state, options_.cancel);
        // A stateful solve returns no edge flows; the check reads them.
        if (options_.validate && r.edge_flow.empty())
          r.edge_flow = state.edge_flows(g);
        return r;
      });
  // A step that failed anywhere (before the solve, inside it, or in the
  // check) left the state behind `net`'s edits or half-repaired.
  if (!out.ok) state.clear();
  return out;
}

BatchReport BatchEngine::run_delta(const graph::FlowNetwork& base,
                                   std::span<const flow::CapacityDelta> deltas,
                                   const SolverPtr& solver) const {
  if (!solver)
    throw std::invalid_argument("BatchEngine::run_delta: solver is null");
  BatchReport report;
  report.threads_used = 1;
  const auto batch_t0 = Clock::now();

  graph::FlowNetwork net = base;
  report.outcomes.push_back(run_one(net, solver));
  flow::MaxFlowResult prior;
  if (report.outcomes.front().ok) prior = report.outcomes.front().result;
  // One kept residual for the whole stream: after the first step carries
  // from the scratch solve's edge flows, every step advances it in place.
  flow::DeltaState state;

  for (size_t k = 0; k < deltas.size(); ++k) {
    InstanceOutcome out;
    try {
      flow::CapacityDelta d = deltas[k]; // apply() records old capacities
      d.apply(net);
      out = run_delta(net, d, prior, solver, state);
    } catch (const std::exception& e) {
      // A bad edit (index / capacity) fails this step. apply() is
      // all-or-nothing, so the network (and the kept state) still holds
      // the previous step's state exactly and the stream continues from it.
      out.ok = false;
      out.error = e.what();
      out.error_info = classify_error(e);
    }
    out.index = static_cast<int>(k) + 1;
    if (out.ok) prior = out.result;
    report.outcomes.push_back(std::move(out));
  }

  report.wall_seconds = seconds_since(batch_t0);
  aggregate_outcomes(report);
  return report;
}

void write_metrics_fields(util::JsonWriter& j, const flow::SolveMetrics& m) {
#define AFLOW_WRITE_COUNTER(name) j.field(#name, m.name);
  AFLOW_SOLVE_COUNTERS(AFLOW_WRITE_COUNTER)
#undef AFLOW_WRITE_COUNTER
}

void write_metrics_json(util::JsonWriter& j, const flow::SolveMetrics& m) {
  j.begin_object();
  write_metrics_fields(j, m);
  j.end_object();
}

} // namespace aflow::core
