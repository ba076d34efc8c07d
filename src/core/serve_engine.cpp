#include "core/serve_engine.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analog/solver.hpp"
#include "core/errors.hpp"
#include "core/registry.hpp"
#include "core/sharded_solver.hpp"
#include "core/workload.hpp"
#include "mincut/dual_circuit.hpp"
#include "sim/sweep.hpp"
#include "util/cancel.hpp"

namespace aflow::core {

namespace {

/// Splits a request line into whitespace-separated tokens; double quotes
/// group (so `--spec "grid:side=8,seed=1"` works even with spaces). A line
/// whose first non-blank character is '#' is a comment.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
      ++i;
    if (i >= line.size()) break;
    if (line[i] == '#' && out.empty()) return {};
    std::string tok;
    if (line[i] == '"') {
      ++i;
      while (i < line.size() && line[i] != '"') tok += line[i++];
      if (i < line.size()) ++i; // closing quote
    } else {
      while (i < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[i])))
        tok += line[i++];
    }
    out.push_back(std::move(tok));
  }
  return out;
}

/// Parses the structured reconfigure edit list: `I:C[,I:C...]` (edge
/// index, new capacity); a later edit to the same edge wins. Edge ids are
/// int: an index beyond that range must not wrap into a valid one.
std::vector<flow::CapacityEdit> parse_edit_list(const std::string& spec) {
  std::vector<flow::CapacityEdit> edits;
  for (const std::string& item : util::split(spec, ',')) {
    const size_t colon = item.find(':');
    const auto edge = util::parse_number<int>(item.substr(0, colon));
    const auto capacity = util::parse_number<double>(
        colon == std::string::npos ? "" : item.substr(colon + 1));
    if (!edge || !capacity)
      throw std::invalid_argument("bad --edits item '" + item +
                                  "' (want EDGE:CAPACITY)");
    edits.push_back({*edge, *capacity});
  }
  return edits;
}

/// Wraps a single-outcome delta solve as a BatchReport so it folds into
/// the session/bank telemetry scopes exactly like a run() report.
BatchReport report_of(InstanceOutcome out) {
  BatchReport report;
  report.wall_seconds = out.seconds;
  report.threads_used = 1;
  if (out.ok) {
    report.total_flow = out.result.flow_value;
    report.metrics = out.result.metrics;
    if (out.result.metrics.warm_started) report.warm_started_instances = 1;
  } else {
    report.failed = 1;
  }
  report.outcomes.push_back(std::move(out));
  return report;
}

/// Bound on the per-session edit log: a reconfiguration stream that runs
/// longer than this between solves of one backend just composes a gap and
/// takes the scratch path — correctness never depends on log depth.
constexpr size_t kEditLogCap = 256;

/// Most points one `sweep` may ask for, 512 times the default of 8: the
/// sweep allocates and solves every point, so a request line must not size
/// that work without bound.
constexpr int kMaxSweepPoints = 4096;

/// Gauge/counter snapshot of one shared ReusePool (a bank's, or the
/// sweep/min-cut pool). Point-in-time under concurrency: other sessions
/// may be mutating the pool while this snapshot is taken.
void write_pool_json(util::JsonWriter& j, const ReusePool& pool) {
  const ReusePool::Stats s = pool.stats();
  j.begin_object();
  j.field("entries", pool.size());
  j.field("bytes", pool.bytes());
  j.field("byte_budget", pool.byte_budget());
  j.field("hits", s.hits);
  j.field("misses", s.misses);
  j.field("stores", s.stores);
  j.field("evictions", s.evictions);
  j.field("drops", s.drops);
  j.end_object();
}

/// Folds one batch report into one accumulation scope. The per-session
/// and shared-bank scopes MUST fold identically — the concurrency tests
/// pin that summing session counters reproduces the bank counters — so
/// both go through this single helper.
void fold_report(const BatchReport& report, long long& solves,
                 long long& failed, double& seconds,
                 flow::SolveMetrics& metrics) {
  solves += static_cast<long long>(report.outcomes.size()) - report.failed;
  failed += report.failed;
  seconds += report.wall_seconds;
  metrics += report.metrics;
}

} // namespace

// ---------------------------------------------------------------- engine

ServeEngine::ServeEngine(ServeOptions options) : options_(std::move(options)) {
  if (options_.deterministic) {
    workers_ = 1;
  } else if (options_.num_threads > 0) {
    workers_ = options_.num_threads;
  } else {
    workers_ =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  if (options_.max_sessions < 1) options_.max_sessions = 1;
  sweep_pool_ = std::make_shared<ReusePool>(options_.pool_byte_budget);
  mincut_pool_ = std::make_shared<ReusePool>(options_.pool_byte_budget);
  sweep_ordering_ = std::make_shared<la::OrderingCache>();
  mincut_ordering_ = std::make_shared<la::OrderingCache>();
}

ServeEngine::~ServeEngine() = default;

std::shared_ptr<ServeSession> ServeEngine::open_session() {
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);
  if (open_sessions_ >= options_.max_sessions) return nullptr;
  ++open_sessions_;
  ++sessions_opened_;
  peak_sessions_ = std::max(peak_sessions_, open_sessions_);
  return std::shared_ptr<ServeSession>(
      new ServeSession(*this, next_session_id_++));
}

void ServeEngine::close_session() {
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);
  --open_sessions_;
}

int ServeEngine::open_sessions() const {
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);
  return open_sessions_;
}

void ServeEngine::set_front_stats_writer(
    std::function<void(util::JsonWriter&)> writer) {
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);
  front_stats_ = std::move(writer);
}

std::string ServeEngine::reject_line() const {
  util::JsonWriter j;
  j.begin_object();
  j.field("schema", "aflow-serve-v1");
  j.field("id", 0);
  j.field("session", 0);
  j.field("request", "connect");
  j.field("ok", false);
  j.field("error", "session limit reached (max_sessions=" +
                       std::to_string(options_.max_sessions) + ")");
  j.end_object();
  return j.str();
}

std::string ServeEngine::handle(const std::string& line) {
  if (!default_session_) default_session_ = open_session();
  if (!default_session_) return reject_line();
  return default_session_->handle(line);
}

bool ServeEngine::done() const {
  return shutdown_.load() || (default_session_ && default_session_->done());
}

ServeEngine::Bank& ServeEngine::bank(const std::string& name) {
  const std::lock_guard<std::mutex> lock(banks_mutex_);
  const auto it = banks_.find(name);
  if (it != banks_.end()) return it->second;

  Bank b;
  // The warm analog backends are rebuilt here (instead of taken from the
  // registry) so their shared pool carries this engine's byte budget and
  // is ONE per-pattern bank for every session, not a per-worker partition;
  // a registry-created warm adapter would hold an unbounded private pool.
  const std::optional<analog::AnalogSolveOptions> builtin =
      builtin_analog_options(name);
  if (builtin && name.find("_warm") != std::string::npos) {
    analog::AnalogSolveOptions opt = *builtin;
    b.pool = std::make_shared<ReusePool>(options_.pool_byte_budget);
    b.ordering = std::make_shared<la::OrderingCache>();
    opt.reuse_pool = b.pool;
    opt.ordering_cache = b.ordering;
    b.solver = make_analog_solver(name, std::move(opt));
  } else {
    // Throws std::invalid_argument for unknown names — surfaced as an
    // ok:false response by ServeSession::handle().
    b.solver = SolverRegistry::instance().create(name);
  }
  return banks_.emplace(name, std::move(b)).first->second;
}

void ServeEngine::absorb(Bank& b, const BatchReport& report) {
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);
  fold_report(report, b.solves, b.failed, b.seconds, b.metrics);
}

void ServeEngine::write_stats(util::JsonWriter& j) {
  j.field("ok", true);
  j.field("requests", requests_.load());
  j.field("workers_per_bank", workers_);
  j.field("deterministic", options_.deterministic);
  j.field("pool_byte_budget", options_.pool_byte_budget);
  j.field("max_sessions", options_.max_sessions);

  // banks_mutex_ freezes the map shape; telemetry_mutex_ freezes the
  // counters (always taken in this order — bank() takes only the first,
  // absorb() only the second).
  const std::lock_guard<std::mutex> banks_lock(banks_mutex_);
  const std::lock_guard<std::mutex> lock(telemetry_mutex_);

  j.key("sessions").begin_object();
  j.field("open", open_sessions_);
  j.field("peak", peak_sessions_);
  j.field("opened", sessions_opened_);
  j.end_object();

  j.key("solvers").begin_array();
  for (const auto& [name, b] : banks_) {
    j.begin_object();
    j.field("solver", name);
    j.field("solves", b.solves);
    j.field("failed", b.failed);
    j.field("wall_ms", b.seconds * 1e3);
    j.key("metrics");
    write_metrics_json(j, b.metrics);
    if (b.pool) {
      j.key("pool");
      write_pool_json(j, *b.pool);
    }
    j.end_object();
  }
  j.end_array();

  j.field("sweeps", sweeps_);
  j.key("sweep_metrics");
  write_metrics_json(j, sweep_metrics_);
  j.key("sweep_pool");
  write_pool_json(j, *sweep_pool_);
  j.field("mincuts", mincuts_);
  j.key("mincut_metrics");
  write_metrics_json(j, mincut_metrics_);
  j.key("mincut_pool");
  write_pool_json(j, *mincut_pool_);

  // Transport-plane counters, present only when a serving front is running
  // (absent in stdin mode and in-process tests). The front's writer only
  // reads its own atomics — safe under telemetry_mutex_.
  if (front_stats_) {
    j.key("front").begin_object();
    front_stats_(j);
    j.end_object();
  }
}

// --------------------------------------------------------------- session

ServeSession::ServeSession(ServeEngine& engine, int id)
    : engine_(engine), id_(id),
      deadline_ms_(engine.options().default_deadline_ms) {}

ServeSession::~ServeSession() { engine_.close_session(); }

util::CancelToken ServeSession::request_token(const util::Args& a) const {
  const long long deadline_ms = a.number("--deadline-ms", deadline_ms_);
  if (deadline_ms < 0)
    throw std::invalid_argument("--deadline-ms must be >= 0 (0 = no deadline)");
  return session_token_.child(deadline_ms);
}

void ServeSession::absorb_session(const BatchReport& report) {
  fold_report(report, solves_, failed_, seconds_, solve_metrics_);
}

bool ServeSession::compose_delta_since(long long from_rev,
                                       flow::CapacityDelta& out) const {
  // Reconfigures log contiguous revisions (from the last load's revision
  // + 1 to revision_), so walking forward from from_rev must see every
  // step; a jump means the log was trimmed past the prior.
  long long expect = from_rev;
  for (const auto& [rev, edits] : edit_log_) {
    if (rev <= from_rev) continue;
    if (rev != expect + 1) return false;
    expect = rev;
    out.edits.insert(out.edits.end(), edits.begin(), edits.end());
  }
  return expect == revision_;
}

const graph::FlowNetwork& ServeSession::require_instance() const {
  if (!current_)
    throw std::invalid_argument(
        "no instance loaded (send: load --input FILE | --spec SPEC)");
  return *current_;
}

std::string ServeSession::handle(const std::string& line) {
  // The request table: one row per command, with its handler and its flags
  // (a name plus a value label, or no label for a switch), in "known:" list
  // order. docs/BENCH_FORMAT.md documents it (tools/check_doc_links.py).
  using S = ServeSession;
  struct Command {
    std::string_view name;
    void (S::*run)(const util::Args&, util::JsonWriter&);
    std::vector<util::Flag> flags;
  };
  static const std::vector<Command> kCommands = {
      {"load", &S::cmd_load,
       {{"--input", "FILE.dimacs"}, {"--spec", "GENSPEC"}}},
      {"reconfigure", &S::cmd_reconfigure,
       {{"--edits", "I:C[,I:C...]"}, {"--seed", "K"}, {"--scale", "F"}}},
      {"solve", &S::cmd_solve,
       {{"--solver", "NAME"}, {"--check"}, {"--scratch"},
        {"--deadline-ms", "N"}, {"--shards", "K"}, {"--threads", "N"}}},
      {"batch", &S::cmd_batch,
       {{"--spec", "GENSPEC"}, {"--solver", "NAME"}, {"--check"}, {"--delta"},
        {"--deadline-ms", "N"}}},
      {"sweep", &S::cmd_sweep,
       {{"--points", "N"}, {"--vmax", "V"}, {"--deadline-ms", "N"}}},
      {"mincut", &S::cmd_mincut, {{"--deadline-ms", "N"}}},
      {"deadline", &S::cmd_deadline, {{"--ms", "N"}}},
      {"session", &S::cmd_session, {}},
      {"stats", &S::cmd_stats, {}},
      {"quit", &S::cmd_quit, {}},
      {"shutdown", &S::cmd_shutdown, {}},
  };
  const std::vector<std::string> t = tokenize(line);
  if (t.empty()) return {};
  ++requests_;
  engine_.requests_.fetch_add(1);
  const std::string& cmd = t[0];

  try {
    const auto row = std::ranges::find(kCommands, cmd, &Command::name);
    if (row == kCommands.end()) {
      std::string known;
      for (const Command& c : kCommands) known += " " + std::string(c.name);
      throw std::invalid_argument("unknown request '" + cmd + "' (known:" +
                                  known + ")");
    }
    const util::Args args(row->flags, std::span(t).subspan(1));
    util::JsonWriter j;
    j.begin_object();
    j.field("schema", "aflow-serve-v1");
    j.field("id", requests_);
    j.field("session", id_);
    j.field("request", cmd);
    (this->*row->run)(args, j);
    j.end_object();
    return j.str();
  } catch (const std::exception& e) {
    // classify_error recognises a ServeRequestError and passes its original
    // classification through unchanged.
    return error_line(cmd, e.what(), classify_error(e));
  }
}

std::string ServeSession::protocol_error(const std::string& message) {
  ++requests_;
  engine_.requests_.fetch_add(1);
  ErrorInfo info;
  info.code = "protocol";
  return error_line("(transport)", message, std::move(info));
}

std::string ServeSession::error_line(const std::string& request,
                                     const std::string& error,
                                     ErrorInfo info) const {
  if (info.message.empty()) info.message = error;
  util::JsonWriter j;
  j.begin_object();
  j.field("schema", "aflow-serve-v1");
  j.field("id", requests_);
  j.field("session", id_);
  j.field("request", request);
  j.field("ok", false);
  j.field("error", error);
  write_error_info(j, info);
  j.end_object();
  return j.str();
}

void ServeSession::cmd_load(const util::Args& a, util::JsonWriter& j) {
  const std::string input = a.string("--input", "");
  const std::string spec = a.string("--spec", "");
  if (input.empty() == spec.empty())
    throw std::invalid_argument("load needs exactly one of --input or --spec");
  std::vector<graph::FlowNetwork> instances =
      load_batch(input.empty() ? spec : input);
  // The session keeps the first instance itself and, for `reconfigure
  // --seed`, only its capacities as loaded: 8 bytes per edge, not a
  // second network.
  std::vector<double> capacities;
  capacities.reserve(static_cast<size_t>(instances.front().num_edges()));
  for (const graph::Edge& e : instances.front().edges())
    capacities.push_back(e.capacity);
  current_ = std::move(instances.front());
  loaded_capacities_ = std::move(capacities);
  // A load may change the topology: restart the reconfiguration stream and
  // drop the priors, with their kept residuals, of the previous instance.
  ++revision_;
  edit_log_.clear();
  priors_.clear();
  j.field("ok", true);
  j.field("instances_in_source", instances.size());
  j.field("vertices", current_->num_vertices());
  j.field("edges", current_->num_edges());
  j.field("source", current_->source());
  j.field("sink", current_->sink());
}

void ServeSession::cmd_reconfigure(const util::Args& a, util::JsonWriter& j) {
  require_instance();
  const long long seed = a.number("--seed", -1LL);
  const bool scaled = a.has("--scale");
  const double scale = a.number("--scale", 0.0);
  if (scaled && !(scale > 0.0))
    throw std::invalid_argument("--scale must be positive");
  const std::string edits_spec = a.string("--edits", "");
  flow::CapacityDelta delta;
  if (!edits_spec.empty()) delta.edits = parse_edit_list(edits_spec);
  if (seed < 0 && !scaled && delta.empty())
    throw std::invalid_argument(
        "reconfigure needs --edits I:C[,I:C...], --seed K, or --scale F");

  // Every request form is reduced to one normalized CapacityDelta against
  // the current instance (the edges whose capacity changed, old capacities
  // recorded, in edge order), so the whole mutation surface feeds the delta
  // solve path uniformly.
  if (seed < 0 && !scaled) {
    // --edits alone: edit the instance in place. apply() validates every
    // edit first and records old capacities, so the parsed edits already
    // are the delta; no copy or diff.
    delta.apply(*current_);
    std::vector<flow::CapacityEdit> changed = delta.composed();
    std::erase_if(changed, [](const flow::CapacityEdit& e) {
      return e.capacity == e.old_capacity;
    });
    std::sort(changed.begin(), changed.end(),
              [](const flow::CapacityEdit& a, const flow::CapacityEdit& b) {
                return a.edge < b.edge;
              });
    delta.edits = std::move(changed);
  } else {
    // --seed reprograms the capacities as loaded with capacity_variants'
    // factors (same seed, same instance, independent of reconfiguration
    // history) and --scale rescales every edge: build the next instance
    // and diff it.
    std::optional<CapacityFactors> factors;
    if (seed >= 0) factors.emplace(static_cast<std::uint64_t>(seed));
    size_t edge = 0;
    graph::FlowNetwork next = current_->transform_capacities([&](double c) {
      const double reprogrammed =
          factors ? loaded_capacities_[edge++] * factors->next() : c;
      return scaled ? reprogrammed * scale : reprogrammed;
    });
    delta.apply(next); // validates indices and capacities
    delta = flow::delta_between(*current_, next);
    current_ = std::move(next);
  }
  ++revision_;
  edit_log_.emplace_back(revision_, delta.edits);
  if (edit_log_.size() > kEditLogCap)
    edit_log_.erase(edit_log_.begin(),
                    edit_log_.begin() +
                        static_cast<long>(edit_log_.size() - kEditLogCap));

  j.field("ok", true);
  j.field("vertices", current_->num_vertices());
  j.field("edges", current_->num_edges());
  j.field("max_capacity", current_->max_capacity());
  j.field("edits_applied", delta.edits.size());
  j.field("revision", revision_);
}

void ServeSession::cmd_solve(const util::Args& a, util::JsonWriter& j) {
  const graph::FlowNetwork& net = require_instance();
  const util::CancelToken token = request_token(a);

  // Read every flag first, so a malformed one is refused on either path.
  const long long shards = a.number("--shards", 0LL);
  ShardOptions so;
  so.shards = static_cast<int>(std::min<long long>(shards, 1 << 20));
  // A request line must not size the region fan-out past the hardware
  // (0 still picks hardware concurrency).
  so.num_threads = std::min(
      a.number("--threads", 0),
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  so.deterministic = engine_.options().deterministic;
  if (shards >= 2) {
    // Sharded decomposition solve of the loaded instance (DESIGN.md
    // "Sharded solve"). Runs outside the bank/prior machinery on purpose:
    // the region subproblems are throwaway networks with no reuse state
    // worth pooling, and the exact result is not a valid warm prior for the
    // per-solver delta path (different backend name, different metrics).
    const ShardedSolver solver(so);
    ShardReport rep;
    const flow::MaxFlowResult r = solver.solve_csr(net, &rep, token);
    j.field("ok", true);
    j.field("solver", "sharded");
    j.field("region_solver", "push_relabel");
    j.field("flow", r.flow_value);
    j.key("shards").begin_object();
    j.field("regions", rep.regions);
    j.field("cut_arcs", rep.cut_arcs);
    j.field("cut_capacity", rep.cut_capacity);
    j.field("upper_bound", rep.upper_bound);
    j.field("stitched_value", rep.stitched_value);
    j.field("refined_added", rep.refined_added);
    j.field("threads", rep.threads_used);
    j.field("region_retries", rep.region_retries);
    j.field("region_direct_solves", rep.region_direct_solves);
    j.end_object();
    return;
  }

  const std::string name =
      a.string("--solver", engine_.options().default_solver);
  ServeEngine::Bank& b = engine_.bank(name);

  BatchOptions bo;
  bo.solver = name;
  bo.validate = a.has("--check");
  bo.cancel = token;

  // Delta routing: ride ISolver::solve_delta when the backend is
  // incremental, the session holds a usable prior for it (same loaded
  // instance, log reaches back to its revision), and the client did not
  // force --scratch. The composed delta is exactly the edits since that
  // prior solved; an empty delta (re-solve without reconfigure) rides the
  // path too — it is the cheapest case.
  bool delta_path = false;
  flow::CapacityDelta delta;
  const auto prior_it = priors_.find(name);
  if (!a.has("--scratch") && prior_it != priors_.end() &&
      b.solver->capabilities().incremental)
    delta_path = compose_delta_since(prior_it->second.revision, delta);

  // Either path runs on the calling session's thread, against the bank's
  // shared solver — so every session's solves feed (and draw from) the same
  // per-pattern pool. The delta path advances the prior's kept residual.
  BatchReport report = report_of(
      delta_path ? BatchEngine(bo).run_delta(net, delta,
                                             prior_it->second.result,
                                             b.solver, prior_it->second.state)
                 : BatchEngine(bo).run_one(net, b.solver));
  engine_.absorb(b, report);
  absorb_session(report);
  InstanceOutcome* out = &report.outcomes.front();
  // A failed solve may have left its backend's residual half-advanced:
  // never reuse it.
  if (!out->ok) priors_.erase(name);

  // Degradation ladder, analog rung: a *retryable* analog failure
  // (divergence, convergence loss, injected fault) is retried once through
  // the exact digital fallback bank before the client sees an error. The
  // rung never fires for a cancelled/expired request — the client asked for
  // the abandonment it got — and the retry runs under the same token, so
  // the fallback still honours the request deadline. The attempt is
  // counted (fallback_analog_digital) whether or not it rescues the solve.
  const std::string& fb_name = engine_.options().fallback_solver;
  std::string served_by = name;
  BatchReport fb_report;
  if (!out->ok && out->error_info.retryable && !token.cancelled() &&
      b.solver->capabilities().analog && !fb_name.empty() && fb_name != name) {
    ServeEngine::Bank& fb = engine_.bank(fb_name);
    BatchOptions fbo;
    fbo.solver = fb_name;
    fbo.validate = bo.validate;
    fbo.cancel = token;
    fb_report = report_of(BatchEngine(fbo).run_one(net, fb.solver));
    fb_report.metrics.fallback_analog_digital = 1;
    engine_.absorb(fb, fb_report);
    absorb_session(fb_report);
    if (fb_report.outcomes.front().ok) {
      out = &fb_report.outcomes.front();
      served_by = fb_name;
    }
  }

  if (!out->ok) {
    ErrorInfo info = out->error_info;
    if (info.message.empty()) info.message = out->error;
    throw ServeRequestError(std::move(info));
  }

  j.field("ok", true);
  j.field("solver", served_by);
  j.field("fallback", served_by != name);
  j.field("delta", delta_path);
  j.field("flow", out->result.flow_value);
  j.key("telemetry").begin_object();
  j.field("ms", out->seconds * 1e3);
  j.field("warm_started", out->result.metrics.warm_started);
  j.key("metrics");
  write_metrics_json(j, out->result.metrics);
  if (b.pool) {
    j.key("pool");
    write_pool_json(j, *b.pool);
  }
  j.end_object();

  // The result becomes its backend's prior, moved rather than copied. A
  // scratch result (the fallback rung's included) comes with edge flows
  // and no kept residual.
  Prior& prior = priors_[served_by];
  if (!delta_path || served_by != name) prior.state.clear();
  prior.revision = revision_;
  prior.result = std::move(out->result);
}

void ServeSession::cmd_batch(const util::Args& a, util::JsonWriter& j) {
  const std::string spec = a.string("--spec", "");
  if (spec.empty()) throw std::invalid_argument("batch needs --spec");
  BatchOptions bo;
  bo.cancel = request_token(a);
  const std::string name =
      a.string("--solver", engine_.options().default_solver);
  ServeEngine::Bank& b = engine_.bank(name);

  bo.solver = name;
  bo.validate = a.has("--check");
  bo.deterministic = engine_.options().deterministic;
  bo.num_threads = engine_.workers_per_bank();
  const std::vector<graph::FlowNetwork> instances = load_batch(spec);

  // --delta: replay the batch as a reconfiguration stream — instance 0
  // solves from scratch, instance k re-solves incrementally from k-1's
  // result across their capacity diff. Requires every instance to share
  // one topology (delta_between throws otherwise); inherently sequential.
  const bool delta_stream = a.has("--delta");
  BatchReport report;
  if (delta_stream) {
    std::vector<flow::CapacityDelta> deltas;
    deltas.reserve(instances.size() > 0 ? instances.size() - 1 : 0);
    for (size_t k = 1; k < instances.size(); ++k)
      deltas.push_back(flow::delta_between(instances[k - 1], instances[k]));
    report = BatchEngine(bo).run_delta(instances.front(), deltas, b.solver);
  } else {
    report = BatchEngine(bo).run(instances, b.solver,
                                 engine_.workers_per_bank());
  }
  engine_.absorb(b, report);
  absorb_session(report);

  j.field("ok", true);
  j.field("solver", name);
  j.field("batch", spec);
  j.field("delta", delta_stream);
  j.field("instances", report.outcomes.size());
  j.field("failed", report.failed);
  j.field("total_flow", report.total_flow);
  j.key("telemetry").begin_object();
  j.field("threads", report.threads_used);
  j.field("wall_ms", report.wall_seconds * 1e3);
  j.field("warm_started_instances", report.warm_started_instances);
  j.key("metrics");
  write_metrics_json(j, report.metrics);
  if (b.pool) {
    j.key("pool");
    write_pool_json(j, *b.pool);
  }
  j.end_object();
}

void ServeSession::cmd_sweep(const util::Args& a, util::JsonWriter& j) {
  const graph::FlowNetwork& net = require_instance();
  const int points = a.number("--points", 8);
  if (points < 1) throw std::invalid_argument("--points must be >= 1");
  if (points > kMaxSweepPoints)
    throw std::invalid_argument("--points must be <= " +
                                std::to_string(kMaxSweepPoints));
  const double vmax = a.number("--vmax", 10.0);
  if (!(vmax > 0.0)) throw std::invalid_argument("--vmax must be positive");

  // The substrate mapping the warm DC adapters use: topology-only MNA
  // pattern, so reconfigured capacities keep hitting the sweep pool. The
  // pool and ordering cache are shared across sessions; results stay
  // bit-identical to a cold run regardless of which session fed the pool
  // (DESIGN.md "Serving architecture").
  analog::MaxFlowCircuit c =
      analog::AnalogMaxFlowSolver(*builtin_analog_options("analog_dc_warm"))
          .map(net);
  sim::DcOptions dc_opt;
  dc_opt.ordering_cache = engine_.sweep_ordering_;
  dc_opt.cancel = request_token(a);
  sim::QuasiStaticSweep sweep(c.netlist, c.vflow_source, dc_opt,
                              engine_.sweep_pool_);
  // Ramp inside the nontrivial region (no zero point): the first point is
  // a real LCP search, which is exactly what the pooled seed collapses.
  std::vector<double> values(points);
  for (int i = 0; i < points; ++i) values[i] = vmax * (i + 1) / points;
  const sim::SweepResult r =
      sweep.run(values, {sim::Probe::source_current(c.vflow_source, "Iflow")});
  ++sweeps_;
  sweep_metrics_ += r.stats;
  {
    const std::lock_guard<std::mutex> lock(engine_.telemetry_mutex_);
    ++engine_.sweeps_;
    engine_.sweep_metrics_ += r.stats;
  }

  const double iflow = r.trajectory.back().front();
  j.field("ok", true);
  j.field("points", points);
  j.field("vmax", vmax);
  j.field("flow", c.quantizer.to_flow(c.flow_value_volts_from_iflow(iflow)));
  j.field("breakpoints", r.breakpoints.size());
  j.key("telemetry").begin_object();
  j.field("warm_started", r.stats.warm_started);
  j.field("dc_iterations", r.stats.iterations);
  j.field("warm_iterations", r.stats.warm_iterations);
  j.field("cold_iterations", r.stats.cold_iterations);
  j.field("full_factors", r.stats.full_factors);
  j.field("refactors", r.stats.refactors);
  j.field("pool_hits", r.stats.pool_hits);
  j.field("pool_misses", r.stats.pool_misses);
  j.field("pool_evictions", r.stats.pool_evictions);
  j.key("pool");
  write_pool_json(j, *engine_.sweep_pool_);
  j.end_object();
}

void ServeSession::cmd_mincut(const util::Args& a, util::JsonWriter& j) {
  const graph::FlowNetwork& net = require_instance();
  mincut::DualCircuitOptions opt;
  opt.ordering_cache = engine_.mincut_ordering_;
  opt.reuse_pool = engine_.mincut_pool_;
  opt.cancel = request_token(a);
  const mincut::AnalogMinCutResult r = mincut::solve_mincut_dual(net, opt);
  ++mincuts_;
  mincut_metrics_ += r;
  {
    const std::lock_guard<std::mutex> lock(engine_.telemetry_mutex_);
    ++engine_.mincuts_;
    engine_.mincut_metrics_ += r;
  }

  double partition_cut = 0.0;
  for (const graph::Edge& e : net.edges())
    if (r.side[e.from] && !r.side[e.to]) partition_cut += e.capacity;

  j.field("ok", true);
  j.field("cut_value", partition_cut);
  j.field("objective", r.cut_value);
  j.field("flow_recovered", r.flow_value);
  j.key("telemetry").begin_object();
  j.field("warm_started", r.warm_started);
  j.field("dc_iterations", r.iterations);
  j.field("warm_iterations", r.warm_iterations);
  j.field("cold_iterations", r.cold_iterations);
  j.field("pool_hits", r.pool_hits);
  j.field("pool_misses", r.pool_misses);
  j.field("pool_evictions", r.pool_evictions);
  j.key("pool");
  write_pool_json(j, *engine_.mincut_pool_);
  j.end_object();
}

void ServeSession::cmd_deadline(const util::Args& a, util::JsonWriter& j) {
  const long long ms = a.number("--ms", -1LL);
  if (ms < 0)
    throw std::invalid_argument("deadline needs --ms N (0 clears the default)");
  deadline_ms_ = ms;
  j.field("ok", true);
  j.field("deadline_ms", deadline_ms_);
}

void ServeSession::cmd_stats(const util::Args&, util::JsonWriter& j) {
  engine_.write_stats(j);
}

void ServeSession::cmd_quit(const util::Args&, util::JsonWriter& j) {
  done_ = true;
  j.field("ok", true);
}

void ServeSession::cmd_shutdown(const util::Args& a, util::JsonWriter& j) {
  engine_.request_shutdown();
  cmd_quit(a, j);
}

void ServeSession::cmd_session(const util::Args&, util::JsonWriter& j) {
  j.field("ok", true);
  j.field("requests", requests_);
  j.field("solves", solves_);
  j.field("failed", failed_);
  j.field("sweeps", sweeps_);
  j.field("mincuts", mincuts_);
  j.field("deadline_ms", deadline_ms_);
  j.key("instance").begin_object();
  j.field("loaded", current_.has_value());
  if (current_) {
    j.field("vertices", current_->num_vertices());
    j.field("edges", current_->num_edges());
    j.field("revision", revision_);
  }
  j.end_object();
  j.key("telemetry").begin_object();
  j.field("wall_ms", seconds_ * 1e3);
  j.key("solve_metrics");
  write_metrics_json(j, solve_metrics_);
  j.key("sweep_metrics");
  write_metrics_json(j, sweep_metrics_);
  j.key("mincut_metrics");
  write_metrics_json(j, mincut_metrics_);
  j.end_object();
}

} // namespace aflow::core
