#include "core/registry.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/sharded_solver.hpp"

namespace aflow::core {

namespace {

/// Adapts a `flow::` free function to the ISolver interface. Backends with
/// an incremental companion (dinic_resolve, push_relabel_resolve) pass it
/// as `resolve_fn` and advertise SolverCapabilities::incremental; the rest
/// keep the ISolver default (from-scratch fallback).
class ClassicalSolver final : public ISolver {
 public:
  using Fn = flow::MaxFlowResult (*)(const graph::FlowNetwork&,
                                     const util::CancelToken&);
  using ResolveFn = flow::MaxFlowResult (*)(const graph::FlowNetwork&,
                                            const flow::CapacityDelta&,
                                            const flow::MaxFlowResult&,
                                            flow::DeltaState&,
                                            const util::CancelToken&);

  ClassicalSolver(std::string name, Fn fn, ResolveFn resolve_fn = nullptr)
      : name_(std::move(name)), fn_(fn), resolve_fn_(resolve_fn) {}

  using ISolver::solve;
  using ISolver::solve_delta;

  const std::string& name() const override { return name_; }
  SolverCapabilities capabilities() const override {
    SolverCapabilities caps;
    caps.incremental = resolve_fn_ != nullptr;
    return caps;
  }
  flow::MaxFlowResult solve(const graph::FlowNetwork& net,
                            const CancelToken& cancel) const override {
    return fn_(net, cancel);
  }
  flow::MaxFlowResult solve_delta(
      const graph::FlowNetwork& net, const flow::CapacityDelta& delta,
      const flow::MaxFlowResult& prior, flow::DeltaState* state,
      const CancelToken& cancel) const override {
    if (!resolve_fn_)
      return ISolver::solve_delta(net, delta, prior, state, cancel);
    if (state) return resolve_fn_(net, delta, prior, *state, cancel);
    // A caller that keeps no state gets the edge flows.
    flow::DeltaState local;
    flow::MaxFlowResult r = resolve_fn_(net, delta, prior, local, cancel);
    r.edge_flow = local.edge_flows(net);
    return r;
  }

 private:
  std::string name_;
  Fn fn_;
  ResolveFn resolve_fn_;
};

class AnalogSolverAdapter final : public ISolver {
 public:
  AnalogSolverAdapter(std::string name, analog::AnalogSolveOptions options)
      : name_(std::move(name)),
        solver_(with_ordering_cache(std::move(options))) {}

  using ISolver::solve;
  using ISolver::solve_delta;

  const std::string& name() const override { return name_; }

  SolverCapabilities capabilities() const override {
    SolverCapabilities caps;
    caps.exact = false;
    caps.analog = true;
    // The analog delta path re-converges from the pooled operating point
    // (DcSolver::solve_warm), so it needs a ReusePool to carry state
    // between solves of one adapter — and only the steady-state method has
    // an operating point to carry (transient must start from rest).
    caps.incremental =
        solver_.has_reuse_pool() &&
        solver_.options().method == analog::SolveMethod::kSteadyState;
    return caps;
  }

  flow::MaxFlowResult solve(const graph::FlowNetwork& net,
                            const CancelToken& cancel) const override {
    return to_result(solver_.solve(net, cancel));
  }

  flow::MaxFlowResult solve_delta(
      const graph::FlowNetwork& net, const flow::CapacityDelta& delta,
      const flow::MaxFlowResult& prior, flow::DeltaState* state,
      const CancelToken& cancel) const override {
    if (!solver_.has_reuse_pool())
      return ISolver::solve_delta(net, delta, prior, state, cancel);
    (void)prior; // the analog carry-over state lives in the ReusePool
    (void)state;
    return to_result(solver_.solve_delta(net, delta, cancel));
  }

 private:
  static flow::MaxFlowResult to_result(const analog::AnalogFlowResult& r) {
    flow::MaxFlowResult out;
    out.flow_value = r.flow_value;
    out.edge_flow = r.edge_flow;
    out.operations = r.iterations;
    out.metrics = r;
    return out;
  }

  // Each adapter instance owns an ordering cache, so same-shape instances
  // solved through one adapter share their symbolic analysis. BatchEngine
  // creates one solver per worker thread, which makes this exactly the
  // per-worker sharing of the reconfiguration scenario (one crossbar
  // topology, many programmed conductance sets); the cache itself is
  // thread-safe, so the ISolver concurrency contract still holds.
  static analog::AnalogSolveOptions with_ordering_cache(
      analog::AnalogSolveOptions options) {
    if (!options.ordering_cache)
      options.ordering_cache = std::make_shared<la::OrderingCache>();
    return options;
  }

  std::string name_;
  analog::AnalogMaxFlowSolver solver_;
};

void register_builtins(SolverRegistry& reg) {
  reg.add("edmonds_karp", [] {
    return std::make_shared<ClassicalSolver>("edmonds_karp",
                                             &flow::edmonds_karp);
  });
  reg.add("dinic", [] {
    return std::make_shared<ClassicalSolver>("dinic", &flow::dinic,
                                             &flow::dinic_resolve);
  });
  reg.add("push_relabel", [] {
    return std::make_shared<ClassicalSolver>("push_relabel",
                                             &flow::push_relabel,
                                             &flow::push_relabel_resolve);
  });
  // Default-configured sharded decomposition solver; callers needing a
  // specific shard count / region backend construct ShardedSolver directly.
  reg.add("sharded", [] { return std::make_shared<ShardedSolver>(); });
  reg.add("analog_dc", [] {
    return make_analog_solver("analog_dc", *builtin_analog_options("analog_dc"));
  });
  reg.add("analog_transient", [] {
    return make_analog_solver("analog_transient",
                              *builtin_analog_options("analog_transient"));
  });
  // Warm variants: same substrate model plus a per-adapter core::ReusePool,
  // so same-shape instances flowing through one adapter (= one BatchEngine
  // worker) share factored LU prototypes and seed Newton from the previous
  // converged state. Kept separate from the plain adapters because warm
  // results depend on the order instances reach the pool: deterministic
  // batches are fully reproducible, but arbitrary multi-thread schedules
  // are only tolerance-identical, not bit-identical, to a cold run.
  // Dedicated level sources keep the MNA pattern a function of the graph
  // topology alone, so reprogrammed-capacity batches actually hit the pool.
  reg.add("analog_dc_warm", [] {
    auto opt = *builtin_analog_options("analog_dc_warm");
    opt.reuse_pool = std::make_shared<ReusePool>();
    return make_analog_solver("analog_dc_warm", std::move(opt));
  });
  reg.add("analog_transient_warm", [] {
    auto opt = *builtin_analog_options("analog_transient_warm");
    opt.reuse_pool = std::make_shared<ReusePool>();
    return make_analog_solver("analog_transient_warm", std::move(opt));
  });
}

} // namespace

SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry* reg = [] {
    auto* r = new SolverRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

void SolverRegistry::add(const std::string& name, Factory factory) {
  const std::lock_guard<std::mutex> lock(mutex_);
  factories_[name] = std::move(factory);
}

bool SolverRegistry::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return factories_.count(name) > 0;
}

SolverPtr SolverRegistry::create(const std::string& name) const {
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = factories_.find(name);
    if (it == factories_.end()) {
      std::ostringstream msg;
      msg << "unknown solver '" << name << "'; known solvers:";
      for (const auto& [known, unused] : factories_) msg << ' ' << known;
      throw std::invalid_argument(msg.str());
    }
    factory = it->second;
  }
  return factory();
}

std::vector<std::string> SolverRegistry::names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, unused] : factories_) out.push_back(name);
  return out;
}

flow::MaxFlowResult solve(const std::string& solver,
                          const graph::FlowNetwork& net) {
  return SolverRegistry::instance().create(solver)->solve(net);
}

SolverPtr make_analog_solver(std::string name,
                             analog::AnalogSolveOptions options) {
  return std::make_shared<AnalogSolverAdapter>(std::move(name),
                                               std::move(options));
}

std::optional<analog::AnalogSolveOptions> builtin_analog_options(
    const std::string& name) {
  const bool warm = name == "analog_dc_warm" || name == "analog_transient_warm";
  if (name != "analog_dc" && name != "analog_transient" && !warm)
    return std::nullopt;

  // Near-ideal substrate options: the analog registry entries should track
  // the exact solvers up to quantization, not confound users with op-amp
  // lag or parasitic dynamics (those stay available through
  // make_analog_solver).
  analog::AnalogSolveOptions opt;
  opt.config.fidelity = analog::NegResFidelity::kIdeal;
  opt.config.parasitic_capacitance = 0.0;
  opt.config.vflow = 10.0;
  if (name == "analog_transient" || name == "analog_transient_warm") {
    opt.method = analog::SolveMethod::kTransient;
    // The transient entries exist to measure convergence time, which needs
    // some dynamics: keep the default parasitics on the crossbar wires.
    opt.config.parasitic_capacitance = 20e-15;
    // Ideal negative conductances under capacitive load make the widget
    // internals saddle points (DESIGN.md "NIC saddle-point instability
    // under capacitive load"), which used to diverge on generated grid
    // workloads. The registry default therefore integrates the series
    // finite-GBW lag (high-frequency modes see a positive resistance, and
    // the L-stable integrator damps them) with the smallest stability
    // margin that settles across the generated corpora. Accuracy price:
    // any positive margin biases the widgets (EXPERIMENTS.md "Marginal
    // stability on generated workloads"), so this entry reports settling
    // dynamics at ~10% flow error on grids — exactness stays with
    // analog_dc, whose algebraic internal nodes never see the saddle.
    opt.config.fidelity = analog::NegResFidelity::kLag;
    opt.config.lag_uses_series_element = true;
    opt.config.stability_margin = 0.001;
  }
  // Dedicated level sources keep the warm adapters' MNA pattern a function
  // of the graph topology alone, so reprogrammed-capacity streams actually
  // hit the pool.
  if (warm) opt.config.dedicated_level_sources = true;
  return opt;
}

} // namespace aflow::core
