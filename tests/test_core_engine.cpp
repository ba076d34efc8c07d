// The engine layer: solver registry round-trips, batch execution with
// thread-count-independent results, failure isolation, and workload specs.
#include <gtest/gtest.h>

#include <filesystem>
#include <latch>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/batch_engine.hpp"
#include "core/registry.hpp"
#include "core/workload.hpp"
#include "flow/maxflow.hpp"
#include "graph/dimacs.hpp"
#include "graph/generators.hpp"

namespace core = aflow::core;
namespace graph = aflow::graph;
namespace flow = aflow::flow;

namespace {

/// 50 mixed instances (grid + layered + uniform random), a few hundred
/// vertices each, so the determinism test exercises real scheduling.
std::vector<graph::FlowNetwork> mixed_batch() {
  return core::load_batch(
      "grid:side=12,count=20,seed=1;"
      "layered:layers=5,width=12,fanout=4,cap=32,count=15,seed=100;"
      "uniform:n=200,m=900,cap=64,count=15,seed=200");
}

} // namespace

TEST(ArcLayout, ConcurrentFirstSolvesOfOneSharedNetworkAgree) {
  // Four threads run the first exact solve of one const network at once,
  // so each may find no arc layout and build one: they must all publish
  // and read it safely and answer the same maximum flow.
  const std::string spec = "uniform:n=3000,m=18000,cap=64,seed=5";
  const graph::FlowNetwork net = core::load_batch(spec).front();
  // From an independently generated twin, which has a layout of its own.
  const double exact =
      flow::edmonds_karp(core::load_batch(spec).front()).flow_value;
  std::vector<flow::MaxFlowResult> results(4);
  std::latch start(4);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      results[i] = i % 2 ? flow::push_relabel(net) : flow::dinic(net);
    });
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].flow_value, exact) << "thread " << i;
    EXPECT_EQ(flow::check_flow(net, results[i]), "") << "thread " << i;
  }
}

TEST(SolverRegistry, RoundTripsAllBuiltinNames) {
  auto& reg = core::SolverRegistry::instance();
  const auto names = reg.names();
  const std::set<std::string> name_set(names.begin(), names.end());
  for (const char* expected :
       {"edmonds_karp", "dinic", "push_relabel", "analog_dc",
        "analog_transient"}) {
    EXPECT_TRUE(name_set.count(expected)) << expected;
  }
  for (const std::string& name : names) {
    ASSERT_TRUE(reg.contains(name));
    const core::SolverPtr solver = reg.create(name);
    ASSERT_NE(solver, nullptr);
    EXPECT_EQ(solver->name(), name);
  }
}

TEST(SolverRegistry, CapabilitiesDistinguishExactFromAnalog) {
  auto& reg = core::SolverRegistry::instance();
  EXPECT_TRUE(reg.create("dinic")->capabilities().exact);
  EXPECT_FALSE(reg.create("dinic")->capabilities().analog);
  EXPECT_FALSE(reg.create("analog_dc")->capabilities().exact);
  EXPECT_TRUE(reg.create("analog_dc")->capabilities().analog);
}

TEST(SolverRegistry, UnknownNameThrowsWithKnownNames) {
  try {
    core::SolverRegistry::instance().create("simplex");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dinic"), std::string::npos);
  }
}

TEST(SolverRegistry, TransientDefaultSettlesOnGridWorkloads) {
  // Regression for the retuned analog_transient registry default: under
  // the previous kIdeal configuration these generated grid specs tripped
  // sim::DivergenceError (ROADMAP; DESIGN.md "NIC saddle-point instability
  // under capacitive load"). The series-lag + stability-margin default
  // must settle them — to the dynamic operating point, which sits within
  // a documented band of the exact flow, not at it (EXPERIMENTS.md
  // "Marginal stability on generated workloads").
  const core::SolverPtr solver =
      core::SolverRegistry::instance().create("analog_transient");
  for (const char* spec :
       {"grid:side=4,count=1,seed=1", "grid:side=5,count=1,seed=1",
        "grid:side=6,count=1,seed=1"}) {
    const graph::FlowNetwork g = core::load_batch(spec).front();
    const double exact = core::solve("dinic", g).flow_value;
    flow::MaxFlowResult r;
    ASSERT_NO_THROW(r = solver->solve(g)) << spec;
    EXPECT_GT(r.flow_value, 0.0) << spec;
    EXPECT_NEAR(r.flow_value, exact, 0.25 * exact) << spec;
    EXPECT_GT(r.operations, 0) << spec;
  }
}

TEST(SolverRegistry, SolveHelperMatchesDirectCall) {
  const auto g = graph::paper_example_fig5();
  EXPECT_DOUBLE_EQ(core::solve("dinic", g).flow_value, 2.0);
  EXPECT_DOUBLE_EQ(core::solve("push_relabel", g).flow_value, 2.0);
  EXPECT_DOUBLE_EQ(core::solve("edmonds_karp", g).flow_value, 2.0);
  EXPECT_NEAR(core::solve("analog_dc", g).flow_value, 2.0, 0.15);
}

TEST(BatchEngine, SingleAndMultiThreadResultsAreBitIdentical) {
  const auto instances = mixed_batch();
  ASSERT_EQ(instances.size(), 50u);

  core::BatchOptions base;
  base.solver = "dinic";
  base.validate = true;

  core::BatchOptions single = base;
  single.deterministic = true;
  core::BatchOptions multi = base;
  multi.num_threads = 8;

  const auto r1 = core::BatchEngine(single).run(instances);
  const auto rn = core::BatchEngine(multi).run(instances);

  ASSERT_EQ(r1.outcomes.size(), instances.size());
  ASSERT_EQ(rn.outcomes.size(), instances.size());
  EXPECT_EQ(r1.threads_used, 1);
  EXPECT_EQ(r1.failed, 0);
  EXPECT_EQ(rn.failed, 0);

  for (size_t i = 0; i < instances.size(); ++i) {
    const auto& a = r1.outcomes[i];
    const auto& b = rn.outcomes[i];
    ASSERT_TRUE(a.ok && b.ok) << "instance " << i;
    EXPECT_EQ(a.index, static_cast<int>(i));
    // Bit-identical, not approximately equal: the engine must not let the
    // schedule leak into results.
    EXPECT_EQ(a.result.flow_value, b.result.flow_value) << "instance " << i;
    EXPECT_EQ(a.result.operations, b.result.operations) << "instance " << i;
    ASSERT_EQ(a.result.edge_flow.size(), b.result.edge_flow.size());
    for (size_t e = 0; e < a.result.edge_flow.size(); ++e)
      EXPECT_EQ(a.result.edge_flow[e], b.result.edge_flow[e])
          << "instance " << i << " edge " << e;
  }
}

namespace {

/// Test-only backend: delegates to dinic but throws on tiny instances, so
/// batches can contain deliberate failures. (FlowNetwork construction
/// rejects malformed graphs outright, so a solver-side fault is the way to
/// exercise isolation.)
class FaultInjectingSolver final : public core::ISolver {
 public:
  const std::string& name() const override {
    static const std::string n = "fault_injecting";
    return n;
  }
  core::SolverCapabilities capabilities() const override { return {}; }
  using core::ISolver::solve;
  flow::MaxFlowResult solve(const graph::FlowNetwork& net,
                            const core::CancelToken& cancel) const override {
    if (net.num_edges() < 3)
      throw std::runtime_error("injected fault: instance too small");
    return flow::dinic(net, cancel);
  }
};

} // namespace

TEST(BatchEngine, IsolatesPerInstanceFailures) {
  core::SolverRegistry::instance().add("fault_injecting", [] {
    return std::make_shared<FaultInjectingSolver>();
  });

  std::vector<graph::FlowNetwork> instances;
  instances.push_back(graph::paper_example_fig5());
  graph::FlowNetwork tiny(2, 0, 1);
  tiny.add_edge(0, 1, 1.0);
  instances.push_back(tiny); // < 3 edges: the injected fault fires
  instances.push_back(graph::paper_example_fig5());

  core::BatchOptions options;
  options.solver = "fault_injecting";
  const auto report = core::BatchEngine(options).run(instances);

  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_EQ(report.failed, 1);
  EXPECT_TRUE(report.outcomes[0].ok);
  EXPECT_FALSE(report.outcomes[1].ok);
  EXPECT_FALSE(report.outcomes[1].error.empty());
  EXPECT_TRUE(report.outcomes[2].ok);
  EXPECT_DOUBLE_EQ(report.total_flow, 4.0);
}

TEST(BatchEngine, RunOneRefusesADefaultConstructedNetworkBeforeTheSolver) {
  // FlowNetwork::validate is O(1): every constructor and mutator checks
  // its edges, so only a default-constructed network (no vertices) is
  // malformed. It must still be refused before a solver sees it; this
  // solver would answer a runtime_error, classified "internal".
  const core::InstanceOutcome out = core::BatchEngine(core::BatchOptions{})
      .run_one(graph::FlowNetwork{}, std::make_shared<FaultInjectingSolver>());
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error_info.code, "invalid_argument") << out.error;
  EXPECT_EQ(out.error.find("injected fault"), std::string::npos) << out.error;
}

TEST(BatchEngine, UnknownSolverThrowsBeforeRunning) {
  core::BatchOptions options;
  options.solver = "no_such_solver";
  EXPECT_THROW(core::BatchEngine(options).run({graph::paper_example_fig5()}),
               std::invalid_argument);
}

TEST(Workload, GeneratorSpecCountsAndDeterminism) {
  const auto a = core::load_batch("uniform:n=60,m=200,count=3,seed=5");
  const auto b = core::load_batch("uniform:n=60,m=200,count=3,seed=5");
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].num_edges(), b[i].num_edges());
    EXPECT_EQ(core::solve("dinic", a[i]).flow_value,
              core::solve("dinic", b[i]).flow_value);
  }
  // Distinct seeds within the batch: consecutive instances should differ
  // structurally (some edge endpoint or capacity).
  bool differs = a[0].num_edges() != a[1].num_edges();
  for (int e = 0; !differs && e < a[0].num_edges(); ++e) {
    const auto& e0 = a[0].edge(e);
    const auto& e1 = a[1].edge(e);
    differs = e0.from != e1.from || e0.to != e1.to ||
              e0.capacity != e1.capacity;
  }
  EXPECT_TRUE(differs);
}

TEST(Workload, RejectsUnknownKindAndEmptySpec) {
  EXPECT_THROW(core::load_batch("mesh:n=10"), std::invalid_argument);
  EXPECT_THROW(core::load_batch(";;"), std::invalid_argument);
  EXPECT_THROW(core::load_batch("grid:side"), std::invalid_argument);
}

TEST(Workload, RejectsTyposAndDegenerateDimensions) {
  // Misspelled keys must not silently fall back to defaults.
  EXPECT_THROW(core::load_batch("grid:hieght=8,width=8"),
               std::invalid_argument);
  EXPECT_THROW(core::load_batch("uniform:nodes=10"), std::invalid_argument);
  // Non-positive sizes must not build degenerate "successful" instances.
  EXPECT_THROW(core::load_batch("grid:side=-3"), std::invalid_argument);
  EXPECT_THROW(core::load_batch("grid:height=-3,width=3"),
               std::invalid_argument);
  EXPECT_THROW(core::load_batch("uniform:n=0"), std::invalid_argument);
  EXPECT_THROW(core::load_batch("grid:side=4,count=0"),
               std::invalid_argument);
}

TEST(Workload, RejectsNonIntegralIntegerParams) {
  // grid:side=7.9 must not silently become a 7x7 grid.
  EXPECT_THROW(core::load_batch("grid:side=7.9"), std::invalid_argument);
  EXPECT_THROW(core::load_batch("uniform:n=50,m=200.5"),
               std::invalid_argument);
  EXPECT_THROW(core::load_batch("layered:layers=2.5,width=4"),
               std::invalid_argument);
  EXPECT_THROW(core::load_batch("grid:side=4,count=1.5"),
               std::invalid_argument);
  // Real-valued parameters still accept fractions.
  EXPECT_NO_THROW(core::load_batch("grid:side=4,cap=12.5,neighbor=3.5"));
}

TEST(Workload, TrimsWhitespaceAroundKeysAndValues) {
  const auto tight = core::load_batch("grid:side=5,count=2,seed=9");
  const auto spaced =
      core::load_batch("  grid : side = 5 , count = 2 , seed = 9  ");
  ASSERT_EQ(spaced.size(), tight.size());
  for (size_t i = 0; i < tight.size(); ++i) {
    ASSERT_EQ(spaced[i].num_edges(), tight[i].num_edges());
    for (int e = 0; e < tight[i].num_edges(); ++e) {
      EXPECT_EQ(spaced[i].edge(e).from, tight[i].edge(e).from);
      EXPECT_EQ(spaced[i].edge(e).to, tight[i].edge(e).to);
      EXPECT_EQ(spaced[i].edge(e).capacity, tight[i].edge(e).capacity);
    }
  }
  // Trailing junk after a numeric value is still rejected.
  EXPECT_THROW(core::load_batch("grid:side=5x"), std::invalid_argument);
}

TEST(BatchEngine, AnalogSolverIsThreadCountInvariant) {
  // Same-shape instances share symbolic analysis through the adapter's
  // ordering cache; the ordering is a pure function of the pattern, so
  // results must stay bit-identical across thread counts and schedules.
  const auto instances = core::load_batch("grid:side=4,count=6,seed=21");

  core::BatchOptions det;
  det.solver = "analog_dc";
  det.deterministic = true;
  core::BatchOptions multi;
  multi.solver = "analog_dc";
  multi.num_threads = 3;

  const auto r1 = core::BatchEngine(det).run(instances);
  const auto rn = core::BatchEngine(multi).run(instances);
  ASSERT_EQ(r1.failed, 0);
  ASSERT_EQ(rn.failed, 0);
  for (size_t i = 0; i < instances.size(); ++i)
    EXPECT_EQ(r1.outcomes[i].result.flow_value,
              rn.outcomes[i].result.flow_value)
        << "instance " << i;
}

TEST(Workload, LoadBatchFallsThroughToSpec) {
  const auto nets = core::load_batch("grid:side=4,count=2,seed=3");
  ASSERT_EQ(nets.size(), 2u);
  for (const auto& net : nets) EXPECT_NO_THROW(net.validate());
}

TEST(Workload, SpecSourcesCanMixGeneratorsAndDimacsFiles) {
  const auto path = (std::filesystem::temp_directory_path() /
                     "aflow_test_core_engine_fig5.dimacs")
                        .string();
  graph::write_dimacs_file(path, graph::paper_example_fig5());

  const auto nets =
      core::load_batch("grid:side=4,count=2,seed=1;" + path);
  std::filesystem::remove(path);

  ASSERT_EQ(nets.size(), 3u);
  EXPECT_EQ(nets[2].num_vertices(), 5);
  EXPECT_DOUBLE_EQ(core::solve("dinic", nets[2]).flow_value, 2.0);
}
