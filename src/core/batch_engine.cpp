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
  const int threads =
      resolve_threads(static_cast<int>(instances.size()));
  std::vector<SolverPtr> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t)
    workers.push_back(SolverRegistry::instance().create(options_.solver));
  return run(instances, workers);
}

BatchReport BatchEngine::run(const std::vector<graph::FlowNetwork>& instances,
                             const SolverPtr& shared_solver,
                             int threads) const {
  if (!shared_solver)
    throw std::invalid_argument("BatchEngine::run: shared solver is null");
  const std::vector<SolverPtr> workers(
      static_cast<size_t>(std::max(1, threads)), shared_solver);
  return run(instances, workers);
}

BatchReport BatchEngine::run(const std::vector<graph::FlowNetwork>& instances,
                             std::span<const SolverPtr> workers) const {
  if (workers.empty())
    throw std::invalid_argument("BatchEngine::run: workers must be non-empty");
  BatchReport report;
  const int n = static_cast<int>(instances.size());
  report.outcomes.resize(n);
  report.threads_used = std::min(resolve_threads(n),
                                 std::max(1, static_cast<int>(workers.size())));

  const auto batch_t0 = Clock::now();

  // Work is claimed from a shared atomic counter, and every worker writes
  // only its claimed slots of the pre-sized outcome vector.
  std::atomic<int> next{0};
  const auto worker = [&](int t) {
    const SolverPtr& solver = workers[t];
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      InstanceOutcome& out = report.outcomes[i];
      out.index = i;
      const auto t0 = Clock::now();
      try {
        options_.cancel.check();
        util::FaultInjector::instance().fire("batch.solve", &options_.cancel);
        instances[i].validate();
        out.result = solver->solve(instances[i], options_.cancel);
        if (options_.validate) {
          const std::string err = flow::check_flow(instances[i], out.result);
          if (!err.empty()) throw std::runtime_error("infeasible flow: " + err);
        }
        out.ok = true;
      } catch (const std::exception& e) {
        out.ok = false;
        out.error = e.what();
        out.error_info = classify_error(e);
      }
      out.seconds = seconds_since(t0);
    }
  };

  if (report.threads_used <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(report.threads_used);
    for (int t = 0; t < report.threads_used; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }

  report.wall_seconds = seconds_since(batch_t0);
  aggregate_outcomes(report);
  return report;
}

BatchReport BatchEngine::run_streamed(
    int count, const std::function<graph::FlowNetwork(int)>& make,
    const std::function<void(InstanceOutcome&)>& consume) const {
  if (count < 0)
    throw std::invalid_argument("BatchEngine::run_streamed: negative count");
  if (!make || !consume)
    throw std::invalid_argument(
        "BatchEngine::run_streamed: make/consume must be callable");
  BatchReport report;
  report.outcomes.resize(count);
  report.threads_used = resolve_threads(count);
  std::vector<SolverPtr> workers;
  workers.reserve(report.threads_used);
  for (int t = 0; t < report.threads_used; ++t)
    workers.push_back(SolverRegistry::instance().create(options_.solver));

  const auto batch_t0 = Clock::now();
  std::atomic<int> next{0};
  const auto worker = [&](int t) {
    const SolverPtr& solver = workers[t];
    for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      InstanceOutcome& out = report.outcomes[i];
      out.index = i;
      const auto t0 = Clock::now();
      try {
        options_.cancel.check();
        util::FaultInjector::instance().fire("batch.solve", &options_.cancel);
        const graph::FlowNetwork net = make(i);
        net.validate();
        out.result = solver->solve(net, options_.cancel);
        if (options_.validate) {
          const std::string err = flow::check_flow(net, out.result);
          if (!err.empty()) throw std::runtime_error("infeasible flow: " + err);
        }
        out.ok = true;
      } catch (const std::exception& e) {
        out.ok = false;
        out.error = e.what();
        out.error_info = classify_error(e);
      }
      out.seconds = seconds_since(t0);
      if (out.ok) consume(out);
      // The consumer has scattered what it needs; keep the report light so
      // k huge regions never accumulate k huge flow vectors.
      out.result.edge_flow.clear();
      out.result.edge_flow.shrink_to_fit();
    }
  };

  if (report.threads_used <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(report.threads_used);
    for (int t = 0; t < report.threads_used; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }

  report.wall_seconds = seconds_since(batch_t0);
  aggregate_outcomes(report);
  return report;
}

InstanceOutcome BatchEngine::run_delta(const graph::FlowNetwork& net,
                                       const flow::CapacityDelta& delta,
                                       const flow::MaxFlowResult& prior,
                                       const SolverPtr& solver) const {
  if (!solver)
    throw std::invalid_argument("BatchEngine::run_delta: solver is null");
  InstanceOutcome out;
  out.index = 0;
  const auto t0 = Clock::now();
  try {
    options_.cancel.check();
    net.validate();
    out.result = solver->solve_delta(net, delta, prior, options_.cancel);
    if (options_.validate) {
      const std::string err = flow::check_flow(net, out.result);
      if (!err.empty()) throw std::runtime_error("infeasible flow: " + err);
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
    out.error_info = classify_error(e);
  }
  out.seconds = seconds_since(t0);
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
  flow::MaxFlowResult prior;

  InstanceOutcome first;
  first.index = 0;
  {
    const auto t0 = Clock::now();
    try {
      options_.cancel.check();
      net.validate();
      first.result = solver->solve(net, options_.cancel);
      if (options_.validate) {
        const std::string err = flow::check_flow(net, first.result);
        if (!err.empty()) throw std::runtime_error("infeasible flow: " + err);
      }
      first.ok = true;
      prior = first.result;
    } catch (const std::exception& e) {
      first.ok = false;
      first.error = e.what();
      first.error_info = classify_error(e);
    }
    first.seconds = seconds_since(t0);
  }
  report.outcomes.push_back(std::move(first));

  for (size_t k = 0; k < deltas.size(); ++k) {
    InstanceOutcome out;
    try {
      flow::CapacityDelta d = deltas[k]; // apply() records old capacities
      d.apply(net);
      out = run_delta(net, d, prior, solver);
    } catch (const std::exception& e) {
      // A bad edit (index / capacity) fails this step. apply() is
      // all-or-nothing, so the network still holds the previous step's
      // state exactly and the stream continues from it.
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
  j.field("iterations", m.iterations);
  j.field("full_factors", m.full_factors);
  j.field("refactors", m.refactors);
  j.field("prototype_refactors", m.prototype_refactors);
  j.field("rhs_refreshes", m.rhs_refreshes);
  j.field("warm_iterations", m.warm_iterations);
  j.field("cold_iterations", m.cold_iterations);
  j.field("pool_hits", m.pool_hits);
  j.field("pool_misses", m.pool_misses);
  j.field("pool_evictions", m.pool_evictions);
  j.field("delta_solves", m.delta_solves);
  j.field("delta_fallbacks", m.delta_fallbacks);
  j.field("edges_touched", m.edges_touched);
  j.field("injected_excess_arcs", m.injected_excess_arcs);
  j.field("returned_excess_walks", m.returned_excess_walks);
  j.field("phase2_fallbacks", m.phase2_fallbacks);
  j.field("warm_escalations", m.warm_escalations);
  j.field("fallback_analog_digital", m.fallback_analog_digital);
  j.field("fallback_region_retries", m.fallback_region_retries);
  j.field("fallback_region_direct", m.fallback_region_direct);
  j.field("fallback_pool_rebuilds", m.fallback_pool_rebuilds);
}

void write_metrics_json(util::JsonWriter& j, const flow::SolveMetrics& m) {
  j.begin_object();
  write_metrics_fields(j, m);
  j.end_object();
}

} // namespace aflow::core
