// Event-driven serving front for core::ServeEngine, over Unix-socket and
// TCP transports.
//
// The PR-5 front spent one blocking thread per connection, so connection
// count — not solver speed — was the scaling wall. This front splits the
// two concerns the way streaming maxflow serving systems do: one poll loop
// that owns every transport concern, feeding a FIXED worker pool that owns
// every solver call (DESIGN.md "Event-driven serving front").
//
//   I/O loop (the thread that calls run(), nonblocking fds)
//     accept on both listeners, line framing over per-connection read
//     buffers, oversized-frame resync, per-connection write buffers with
//     nonblocking flushes, hangup detection (POLLRDHUP every poll — the
//     always-on replacement for PR 8's periodic sweep), and backpressure:
//     a connection stops being READ while it sits at its pipelining limit
//     or its write buffer is full, so a slow or absent reader costs one
//     buffered allotment, never a thread and never unbounded memory.
//   Worker pool (options.workers threads)
//     pops requests from one bounded MPSC queue and runs
//     ServeSession::handle. The loop schedules at most ONE request per
//     connection at a time and enqueues parsed lines in arrival order,
//     which is the whole per-session ordering argument: FIFO parse, one in
//     flight, FIFO response buffer (proof sketch in DESIGN.md
//     "Event-driven serving front"). Workers post responses to one mailbox
//     and wake the loop through one self-pipe.
//
// Thousands of idle clients therefore cost file descriptors and a few
// kilobytes of buffer each; run() starts `workers` threads, fixed at
// start. Every PR-5/PR-8 session contract is preserved: one ServeSession
// per connection, per-session response ordering, oversized frames answered
// once and discarded to their newline, beyond-cap connects rejected with
// one line, a client vanishing mid-solve trips the session CancelToken (on
// the next poll wake), and `quit` ends one session while `shutdown` stops
// the front. POSIX-only (guarded throw on _WIN32).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/serve_engine.hpp"

namespace aflow::core {

struct ServeFrontOptions {
  /// Filesystem path of the Unix stream socket (replaced if it already
  /// exists). Empty = no Unix listener.
  std::string socket_path;
  /// TCP listen address, HOST:PORT (port 0 = kernel-assigned, readable
  /// from tcp_port() after start()). Empty = no TCP listener. At least one
  /// of socket_path / tcp_address is required.
  std::string tcp_address;
  /// Longest accepted request line, bytes (without the newline). Longer
  /// frames draw one error response and are discarded to their newline.
  size_t max_line_bytes = 1 << 20;
  /// Worker threads executing requests. 0 = the engine's workers_per_bank.
  int workers = 0;
  /// Per-session pipelining limit: parsed-but-unserved requests a
  /// connection may have queued before the front stops reading it.
  int max_pipeline = 32;
  /// Per-connection write-buffer cap, bytes: a connection whose client is
  /// not draining responses stops being read past this point.
  size_t max_write_buffer_bytes = 256 << 10;
};

/// The front's monotonic counters, one row each, in the key order of the
/// `stats` response's "front" object (docs/BENCH_FORMAT.md holds one table
/// row per counter). FrontTelemetry's atomics and the front's stats writer
/// are generated from this table.
#define AFLOW_FRONT_COUNTERS(X)                                             \
  X(accepted_unix)                                                          \
  X(accepted_tcp)                                                           \
  X(rejected)                                                               \
  X(open_connections)                                                       \
  X(requests_queued)                                                        \
  X(responses_written)                                                      \
  X(backpressure_pauses) /* read pauses: pipelining limit or write cap */   \
  X(oversized_frames)                                                       \
  X(hangup_cancels)      /* hangups that cancelled in-flight/queued work */ \
  X(short_writes)        /* injected serve.write faults */

/// Counters readable from any thread while the front runs.
struct FrontTelemetry {
#define AFLOW_FRONT_ATOMIC(name) std::atomic<long long> name{0};
  AFLOW_FRONT_COUNTERS(AFLOW_FRONT_ATOMIC)
#undef AFLOW_FRONT_ATOMIC
};

class ServeFront {
 public:
  /// Pimpl holding the listeners, the stop flag and the loop's wake pipe;
  /// public so the implementation's free-standing runtime class
  /// (serve_front.cpp) can name it, but defined only in the .cpp.
  struct Impl;

  /// The engine must outlive the front. No sockets are touched until
  /// start().
  ServeFront(ServeEngine& engine, ServeFrontOptions options);
  ~ServeFront();
  ServeFront(const ServeFront&) = delete;
  ServeFront& operator=(const ServeFront&) = delete;

  /// Binds and listens on every configured transport. Throws
  /// std::runtime_error on socket/bind/listen failure (and on _WIN32).
  void start();

  /// Blocking: starts the worker pool and runs the I/O loop on the calling
  /// thread until a session requests shutdown or stop() is called, then
  /// lets in-flight requests finish, joins the workers, flushes buffered
  /// responses for at most one second, and removes the socket file. Call
  /// start() first.
  void run();

  /// Thread-safe: asks run() to return, waking its loop at once.
  void stop();

  const ServeFrontOptions& options() const { return options_; }
  /// The TCP port actually bound (after start()); 0 without a TCP listener.
  std::uint16_t tcp_port() const { return tcp_port_; }
  /// Connections granted a session so far (both transports).
  long long sessions_accepted() const {
    return telemetry_.accepted_unix.load() + telemetry_.accepted_tcp.load();
  }
  /// Connections refused because max_sessions were open.
  long long sessions_rejected() const { return telemetry_.rejected.load(); }
  const FrontTelemetry& telemetry() const { return telemetry_; }

 private:
  std::unique_ptr<Impl> impl_;
  ServeEngine& engine_;
  ServeFrontOptions options_;
  FrontTelemetry telemetry_;
  std::uint16_t tcp_port_ = 0;
};

} // namespace aflow::core
