#include "core/serve_front.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>
#endif

#include "util/event_loop.hpp"
#include "util/fault_injector.hpp"
#include "util/mpsc_queue.hpp"

#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

namespace aflow::core {

#ifdef _WIN32

struct ServeFront::Impl {};
ServeFront::ServeFront(ServeEngine& engine, ServeFrontOptions options)
    : engine_(engine), options_(std::move(options)) {}
ServeFront::~ServeFront() = default;
void ServeFront::start() {
  throw std::runtime_error("ServeFront: sockets are not supported on this "
                           "platform");
}
void ServeFront::run() {}
void ServeFront::stop() {}

#else // POSIX

namespace {

/// One parsed-but-unserved request line. `oversized` marks a frame that
/// violated max_line_bytes: the worker answers it with protocol_error()
/// (text then carries the error message) instead of executing it.
struct PendingLine {
  std::string text;
  bool oversized = false;
};

/// Per-connection state, owned by the I/O loop. Workers touch only
/// `session`, and the executing/response handshake — at most one work
/// item in flight per connection, posted back through the locked mailbox
/// — guarantees the loop never touches `session` (nor closes the
/// connection) while a worker is inside it.
struct Conn {
  int fd = -1;
  bool tcp = false;
  std::shared_ptr<ServeSession> session; // null for rejected connections

  std::string read_buf;
  std::string write_buf;
  size_t write_off = 0;
  std::deque<PendingLine> pending;
  bool executing = false;      // one work item queued or running
  bool discarding = false;     // inside an oversized frame, seeking its \n
  bool reading_paused = false; // backpressure: at pipeline/write-buf limit
  bool hungup = false;         // peer gone; flush nothing, close when idle
  bool done = false;           // quit/shutdown/poison: close once drained
};

struct WorkItem {
  std::shared_ptr<Conn> conn;
  std::string line;
  bool oversized = false;
};

struct Response {
  std::shared_ptr<Conn> conn;
  std::string text;
  bool session_done = false;
};

using Clock = std::chrono::steady_clock;

constexpr int kListenBacklog = 128;
/// Poll timeout: bounds how late the loop notices the end of the drain
/// grace, or a shutdown flag set without a wake. Readiness, responses and
/// stop() wake the loop at once.
constexpr int kPollIntervalMs = 50;
/// At shutdown, how long the front keeps flushing already-buffered
/// responses to clients that are still reading before closing on them.
constexpr int kDrainGraceMs = 1000;
/// recv() calls per connection per poll cycle: bounds how long one
/// fast-writing client can monopolise the loop.
constexpr int kMaxReadsPerCycle = 16;

} // namespace

struct ServeFront::Impl {
  int unix_fd = -1;
  int tcp_fd = -1;
  std::atomic<bool> stop{false};
  /// Wakes the I/O loop: workers posting responses, and stop().
  util::SelfPipe wake;
};

ServeFront::ServeFront(ServeEngine& engine, ServeFrontOptions options)
    : impl_(std::make_unique<Impl>()), engine_(engine),
      options_(std::move(options)) {
  if (options_.max_pipeline < 1) options_.max_pipeline = 1;
  if (options_.max_write_buffer_bytes < 1) options_.max_write_buffer_bytes = 1;
}

ServeFront::~ServeFront() {
  stop();
  // run() joins everything before returning; if it never ran, there is
  // nothing to join — just release the listeners start() may have opened.
  if (impl_->unix_fd >= 0) {
    ::close(impl_->unix_fd);
    ::unlink(options_.socket_path.c_str());
  }
  if (impl_->tcp_fd >= 0) ::close(impl_->tcp_fd);
}

void ServeFront::stop() {
  impl_->stop.store(true);
  impl_->wake.notify();
}

void ServeFront::start() {
  if (options_.socket_path.empty() && options_.tcp_address.empty())
    throw std::runtime_error(
        "ServeFront: configure socket_path and/or tcp_address");
  if (!options_.socket_path.empty())
    impl_->unix_fd = util::listen_unix(options_.socket_path, kListenBacklog);
  if (!options_.tcp_address.empty()) {
    try {
      impl_->tcp_fd =
          util::listen_tcp(options_.tcp_address, kListenBacklog, &tcp_port_);
    } catch (...) {
      if (impl_->unix_fd >= 0) {
        ::close(impl_->unix_fd);
        impl_->unix_fd = -1;
        ::unlink(options_.socket_path.c_str());
      }
      throw;
    }
  }
}

namespace {

/// One run() of the front: the worker pool, the queue and mailbox between
/// it and the loop, and the loop's connections. Every method but
/// worker_main runs on the loop's thread. The destructor closes the queue
/// and joins the workers, so an exception out of the loop unwinds cleanly.
class FrontRuntime {
 public:
  FrontRuntime(ServeEngine& engine, const ServeFrontOptions& options,
               FrontTelemetry& telemetry, ServeFront::Impl& impl);
  ~FrontRuntime();
  FrontRuntime(const FrontRuntime&) = delete;
  FrontRuntime& operator=(const FrontRuntime&) = delete;

  /// Starts the workers and runs the loop until shutdown completes.
  void serve();

 private:
  void worker_main();
  void begin_stop();
  void join_workers();
  /// Accepts until the listener drains. Out of descriptors, it pauses the
  /// listener: a connection stays queued, so the listener would poll ready
  /// at once and the loop would spin.
  void accept_all(int lfd, bool tcp);
  void handle_response(Response& r);
  void append_response(Conn& c, const std::string& text);
  void ingest(const std::shared_ptr<Conn>& conn, const char* data, size_t n);
  void read_conn(const std::shared_ptr<Conn>& conn);
  void flush_conn(Conn& c);
  void dispatch(const std::shared_ptr<Conn>& conn);
  void update_backpressure(Conn& c);
  void hangup(Conn& c);
  void close_conn(Conn& c);
  size_t write_pending(const Conn& c) const {
    return c.write_buf.size() - c.write_off;
  }

  ServeEngine& engine_;
  const ServeFrontOptions& options_;
  FrontTelemetry& telemetry_;
  ServeFront::Impl& impl_;
  const std::string oversized_error_;
  const int worker_count_;

  util::MpscQueue<WorkItem> queue_;
  std::mutex mail_mutex_;
  std::vector<Response> responses_; // workers -> loop, under mail_mutex_
  std::vector<std::shared_ptr<Conn>> conns_;
  /// Shutdown has begun: no accepts, reads or dispatches.
  bool stopping_ = false;
  /// Per listener (unix, tcp): left out of the poll set until this time, or
  /// until a connection closes, after accept() ran out of descriptors.
  Clock::time_point accept_paused_until_[2] = {};
  std::vector<std::thread> workers_; // last: they use every member above
};

FrontRuntime::FrontRuntime(ServeEngine& engine, const ServeFrontOptions& options,
                           FrontTelemetry& telemetry, ServeFront::Impl& impl)
    : engine_(engine), options_(options), telemetry_(telemetry), impl_(impl),
      oversized_error_("oversized frame: request line exceeds " +
                       std::to_string(options.max_line_bytes) + " bytes"),
      worker_count_(std::max(1, options.workers > 0 ? options.workers
                                                    : engine.workers_per_bank())),
      // At most one item per connection is queued, so max_sessions bounds
      // occupancy; the capacity is a memory-safety backstop.
      queue_(static_cast<size_t>(
          std::max(64, engine.options().max_sessions + 1))) {
  engine_.set_front_stats_writer([this](util::JsonWriter& j) {
    // One loop, always; the key stays for aflow-serve-v1 stability.
    j.field("io_threads", 1);
    j.field("workers", worker_count_);
#define AFLOW_WRITE_FRONT_COUNTER(name) j.field(#name, telemetry_.name.load());
    AFLOW_FRONT_COUNTERS(AFLOW_WRITE_FRONT_COUNTER)
#undef AFLOW_WRITE_FRONT_COUNTER
  });
}

FrontRuntime::~FrontRuntime() {
  queue_.close();
  join_workers();
  engine_.set_front_stats_writer(nullptr);
}

void FrontRuntime::join_workers() {
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
}

void FrontRuntime::worker_main() {
  while (std::optional<WorkItem> item = queue_.pop()) {
    // Sessions stay single-threaded by contract: the loop schedules at
    // most one item per connection, so no two workers (and never the loop)
    // are inside one session at a time.
    ServeSession& session = *item->conn->session;
    std::string response = item->oversized
                               ? session.protocol_error(item->line)
                               : session.handle(item->line);
    const bool done = session.done();
    {
      const std::lock_guard<std::mutex> lock(mail_mutex_);
      responses_.push_back(
          Response{std::move(item->conn), std::move(response), done});
    }
    impl_.wake.notify();
  }
}

void FrontRuntime::serve() {
  for (int i = 0; i < worker_count_; ++i)
    workers_.emplace_back([this] { worker_main(); });

  util::Poller poller;
  std::vector<Response> responses;
  std::vector<size_t> slots;
  Clock::time_point drain_deadline{};
  bool draining = false; // workers joined: flush, then close

  for (;;) {
    // -- mailbox: worker responses.
    responses.clear();
    {
      const std::lock_guard<std::mutex> lock(mail_mutex_);
      responses.swap(responses_);
    }
    for (Response& r : responses) handle_response(r);

    // -- shutdown, in dependency order: stop accepting, reading and
    // dispatching; once no request is in flight, join the (now idle)
    // workers; then flush for at most kDrainGraceMs and close.
    if (!stopping_ && (impl_.stop.load() || engine_.shutdown_requested()))
      begin_stop();
    if (stopping_ && !draining &&
        std::none_of(conns_.begin(), conns_.end(),
                     [](const auto& c) { return c->executing; })) {
      join_workers();
      draining = true;
      drain_deadline = Clock::now() + std::chrono::milliseconds(kDrainGraceMs);
    }

    // -- close sweep: a connection leaves once no worker holds it and it
    // has nothing (or no way) left to deliver.
    const bool grace_over = draining && Clock::now() >= drain_deadline;
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn& c = **it;
      const bool flushed = write_pending(c) == 0;
      if (!c.executing && (c.hungup || (c.done && flushed) ||
                           (draining && (flushed || grace_over)))) {
        close_conn(c);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    if (draining && conns_.empty()) break;

    // -- poll set.
    poller.clear();
    slots.clear();
    const size_t wake_slot = poller.add(impl_.wake.read_fd(), POLLIN);
    // poll(2) skips a negative fd: an absent listener, a paused one, or
    // any listener once shutdown has begun, never reads ready.
    const Clock::time_point now = Clock::now();
    const auto listener = [&](int fd, bool tcp) {
      return stopping_ || now < accept_paused_until_[tcp] ? -1 : fd;
    };
    const size_t unix_slot = poller.add(listener(impl_.unix_fd, false), POLLIN);
    const size_t tcp_slot = poller.add(listener(impl_.tcp_fd, true), POLLIN);
    for (const std::shared_ptr<Conn>& conn : conns_) {
      short events = POLLRDHUP; // hangup detection stays on through pauses
      if (!conn->hungup && !conn->done && !conn->reading_paused && !stopping_)
        events |= POLLIN;
      if (write_pending(*conn) > 0 && !conn->hungup) events |= POLLOUT;
      slots.push_back(poller.add(conn->fd, events));
    }

    poller.wait(kPollIntervalMs);

    // -- readiness. Accepted connections join conns_ behind the polled
    // ones, so slot k still names conns_[k].
    if (poller.revents(wake_slot) & POLLIN) impl_.wake.drain();
    if (poller.revents(unix_slot) & POLLIN)
      accept_all(impl_.unix_fd, /*tcp=*/false);
    if (poller.revents(tcp_slot) & POLLIN)
      accept_all(impl_.tcp_fd, /*tcp=*/true);
    for (size_t k = 0; k < slots.size(); ++k) {
      const std::shared_ptr<Conn>& conn = conns_[k];
      const short re = poller.revents(slots[k]);
      if (re & POLLIN) {
        // Read before honouring a hangup bit: a client that pipelined
        // requests and closed straight after still gets them parsed (the
        // EOF surfaces as recv()==0 at the end of the data).
        read_conn(conn);
      } else if (re & (POLLRDHUP | POLLHUP | POLLERR)) {
        hangup(*conn);
      }
      if (!conn->hungup && (re & POLLOUT)) {
        flush_conn(*conn);
        // A drained write buffer may clear the pause even with no request
        // in flight (nothing else re-evaluates it until the next response).
        update_backpressure(*conn);
      }
    }
  }
}

void FrontRuntime::begin_stop() {
  stopping_ = true;
  // Queued-but-unserved requests are dropped, matching the
  // thread-per-connection front's abandon-on-shutdown.
  for (const std::shared_ptr<Conn>& conn : conns_) conn->pending.clear();
  // close() hands back the items no worker popped; no response will come
  // for them, so their connections are no longer executing.
  for (WorkItem& item : queue_.close()) item.conn->executing = false;
}

void FrontRuntime::accept_all(int lfd, bool tcp) {
  for (;;) {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE)
        accept_paused_until_[tcp] =
            Clock::now() + std::chrono::milliseconds(kPollIntervalMs);
      // Anything else — EAGAIN (drained), ECONNABORTED, or memory pressure
      // (ENOMEM) — waits for the next poll cycle, and a broken listener
      // keeps erroring harmlessly until shutdown.
      break;
    }
    try {
      util::set_nonblocking(fd);
    } catch (...) {
      ::close(fd);
      continue;
    }
    if (tcp) util::set_tcp_nodelay(fd);

    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->tcp = tcp;
    std::shared_ptr<ServeSession> session = engine_.open_session();
    if (!session) {
      // Beyond max_sessions: one rejection line, then close-after-flush.
      // The refused client failed, the process did not.
      telemetry_.rejected.fetch_add(1);
      append_response(*conn, engine_.reject_line());
      conn->done = true;
    } else {
      (tcp ? telemetry_.accepted_tcp : telemetry_.accepted_unix).fetch_add(1);
      conn->session = std::move(session);
    }
    telemetry_.open_connections.fetch_add(1);
    flush_conn(*conn); // rejection lines usually leave immediately
    conns_.push_back(std::move(conn));
  }
}

void FrontRuntime::handle_response(Response& r) {
  Conn& c = *r.conn;
  c.executing = false;
  if (!r.text.empty() && !c.hungup && !c.done) append_response(c, r.text);
  if (r.session_done) {
    // quit/shutdown: anything the client pipelined past it is dropped,
    // exactly like the per-thread front breaking out of its read loop.
    c.done = true;
    c.pending.clear();
  }
  dispatch(r.conn);
  if (!c.hungup) flush_conn(c);
  // After the flush, not before: a pause decided on the pre-flush buffer
  // size would stick (with no request in flight there may be no later
  // event to clear it) even though the bytes just left for the kernel.
  update_backpressure(c);
}

void FrontRuntime::append_response(Conn& c, const std::string& text) {
  std::string out = text;
  out += '\n';
  // Chaos hook: simulate the transport dying mid-response (a short write
  // followed by connection loss) through the buffered write path. Clients
  // must treat a line without its newline as a dead session, never as a
  // parseable response.
  if (util::FaultInjector::instance().armed() &&
      util::FaultInjector::instance().take(
          "serve.write", util::FaultInjector::Action::kShort)) {
    out.resize(out.size() / 2);
    telemetry_.short_writes.fetch_add(1);
    c.write_buf += out;
    c.done = true; // close once the poisoned half-line drains
    c.pending.clear();
    return;
  }
  c.write_buf += out;
  telemetry_.responses_written.fetch_add(1);
}

void FrontRuntime::ingest(const std::shared_ptr<Conn>& conn, const char* data,
                          size_t n) {
  Conn& c = *conn;
  size_t offset = 0;
  if (c.discarding) {
    // Inside an oversized frame (already answered): drop bytes without
    // buffering them — the frame limit must bound memory even against a
    // client that streams forever without a newline — and resync at the
    // frame's newline.
    const void* nl = std::memchr(data, '\n', n);
    if (!nl) return;
    offset = static_cast<size_t>(static_cast<const char*>(nl) - data) + 1;
    c.discarding = false;
  }
  c.read_buf.append(data + offset, n - offset);

  size_t start = 0;
  for (size_t nl; (nl = c.read_buf.find('\n', start)) != std::string::npos;) {
    std::string line = c.read_buf.substr(start, nl - start);
    start = nl + 1;
    // A complete line can exceed the limit too (its newline arrived in the
    // same chunk): reject it instead of serving it. The rejection rides
    // the same per-session queue as real requests, so its response keeps
    // its place in the session's response order.
    if (line.size() > options_.max_line_bytes) {
      telemetry_.oversized_frames.fetch_add(1);
      c.pending.push_back(PendingLine{oversized_error_, true});
    } else {
      c.pending.push_back(PendingLine{std::move(line), false});
    }
  }
  c.read_buf.erase(0, start);

  if (c.read_buf.size() > options_.max_line_bytes) {
    // Oversized frame still awaiting its newline: queue one error answer,
    // drop what we buffered, and discard the rest as it streams in.
    telemetry_.oversized_frames.fetch_add(1);
    c.pending.push_back(PendingLine{oversized_error_, true});
    c.read_buf.clear();
    c.discarding = true;
  }

  dispatch(conn);
  update_backpressure(c);
}

void FrontRuntime::read_conn(const std::shared_ptr<Conn>& conn) {
  Conn& c = *conn;
  char chunk[4096];
  for (int reads = 0; reads < kMaxReadsPerCycle; ++reads) {
    if (c.reading_paused || c.hungup || c.done) break;
    const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
    if (n == 0) {
      // Client closed — possibly mid-line; the partial line is dropped and
      // only this session ends.
      hangup(c);
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (!util::would_block(errno)) hangup(c);
      break;
    }
    ingest(conn, chunk, static_cast<size_t>(n));
  }
}

void FrontRuntime::flush_conn(Conn& c) {
  while (write_pending(c) > 0) {
    const ssize_t n =
        ::send(c.fd, c.write_buf.data() + c.write_off, write_pending(c),
               MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (!util::would_block(errno)) hangup(c);
      return;
    }
    c.write_off += static_cast<size_t>(n);
  }
  c.write_buf.clear();
  c.write_off = 0;
}

void FrontRuntime::dispatch(const std::shared_ptr<Conn>& conn) {
  Conn& c = *conn;
  if (c.executing || c.hungup || c.done || c.pending.empty() || stopping_)
    return;
  PendingLine item = std::move(c.pending.front());
  c.pending.pop_front();
  c.executing = true;
  telemetry_.requests_queued.fetch_add(1);
  // Capacity is sized to max_sessions (one in-flight item per connection),
  // so this never blocks in practice; a false return means the queue was
  // closed for shutdown, where dropping the request is the contract.
  if (!queue_.push(WorkItem{conn, std::move(item.text), item.oversized}))
    c.executing = false;
}

void FrontRuntime::update_backpressure(Conn& c) {
  const bool should_pause =
      c.pending.size() >= static_cast<size_t>(options_.max_pipeline) ||
      write_pending(c) >= options_.max_write_buffer_bytes;
  if (should_pause && !c.reading_paused) {
    c.reading_paused = true;
    telemetry_.backpressure_pauses.fetch_add(1);
  } else if (!should_pause && c.reading_paused) {
    c.reading_paused = false;
  }
}

void FrontRuntime::hangup(Conn& c) {
  if (c.hungup) return;
  c.hungup = true;
  c.pending.clear(); // queued-but-unserved requests are work for nobody
  if (c.executing && c.session) {
    // The client's read side is gone mid-request: trip the session token
    // so the in-flight solve unwinds at its next cancellation point
    // instead of running to completion on a dead socket. This is the
    // always-on replacement for the accept thread's periodic POLLRDHUP
    // sweep. (The session object itself stays alive until the worker
    // posts its response — the close sweep waits for `executing`.)
    c.session->cancel();
    telemetry_.hangup_cancels.fetch_add(1);
  }
}

void FrontRuntime::close_conn(Conn& c) {
  c.session.reset(); // frees the max_sessions slot
  ::close(c.fd);
  telemetry_.open_connections.fetch_sub(1);
  // The freed descriptor may let a paused listener's queue in.
  accept_paused_until_[0] = accept_paused_until_[1] = {};
}

} // namespace

void ServeFront::run() {
  if (impl_->unix_fd < 0 && impl_->tcp_fd < 0)
    throw std::runtime_error("ServeFront::run: call start() first");
  FrontRuntime(engine_, options_, telemetry_, *impl_).serve();

  if (impl_->unix_fd >= 0) {
    ::close(impl_->unix_fd);
    impl_->unix_fd = -1;
    ::unlink(options_.socket_path.c_str());
  }
  if (impl_->tcp_fd >= 0) {
    ::close(impl_->tcp_fd);
    impl_->tcp_fd = -1;
  }
}

#endif // _WIN32

} // namespace aflow::core
