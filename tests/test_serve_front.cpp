// Transport and scheduling robustness of the event-driven core::ServeFront,
// parameterized over BOTH real transports (Unix socket and TCP): interleaved
// partial lines, oversized frames, mid-request and mid-solve disconnects,
// connects beyond --max-sessions, pipelining order, backpressure against
// slow readers, and connection counts far beyond the thread count must all
// behave (or fail) per-session without killing the process or the other
// sessions.
#include <gtest/gtest.h>

#ifndef _WIN32

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve_transport_harness.hpp"
#include "util/event_loop.hpp"
#include "util/fault_injector.hpp"

namespace core = aflow::core;
namespace util = aflow::util;

using serve_test::Client;
using serve_test::FrontHarness;
using serve_test::Transport;

namespace {

bool json_ok(const std::string& json) {
  return json.find("\"ok\":true") != std::string::npos;
}

long long response_id(const std::string& json) {
  const std::string needle = "\"id\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(json.c_str() + at + needle.size(), nullptr, 10);
}

/// The process thread count once it has held still for 50 ms (waiting at
/// most 2 s). Threads that earlier tests joined can stay in the count for
/// a moment after their join returns, so it may fall while they drain, but
/// it may never rise: a thread born now is one the caller did not expect.
int settled_thread_count() {
  int count = serve_test::process_thread_count();
  for (int steady = 0, waits = 0; steady < 5 && waits < 200; ++waits) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const int now = serve_test::process_thread_count();
    EXPECT_LE(now, count) << "a thread started while the count settled";
    steady = now == count ? steady + 1 : 0;
    count = now;
  }
  return count;
}

class ServeFrontTransport : public ::testing::TestWithParam<Transport> {};

} // namespace

TEST_P(ServeFrontTransport, InterleavedPartialLinesAreReassembled) {
  FrontHarness harness(GetParam());
  Client c(harness);

  // One request split across three writes, with a pause between them.
  c.send_raw("load --spec gr");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  c.send_raw("id:side=4,se");
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  c.send_raw("ed=1\nsolve --solver dinic\n");

  const std::string load = c.read_line();
  EXPECT_TRUE(json_ok(load)) << load;
  EXPECT_NE(load.find("\"request\":\"load\""), std::string::npos) << load;
  const std::string solve = c.read_line();
  EXPECT_TRUE(json_ok(solve)) << solve;
  EXPECT_NE(solve.find("\"flow\":90"), std::string::npos) << solve;
}

TEST_P(ServeFrontTransport, OversizedFramesErrorAndTheSessionResyncs) {
  core::ServeFrontOptions fo;
  fo.max_line_bytes = 128;
  FrontHarness harness(GetParam(), {}, fo);
  Client c(harness);

  // A 512-byte line: exceeds the frame limit long before its newline.
  c.send_raw(std::string(512, 'x'));
  const std::string err = c.read_line();
  EXPECT_NE(err.find("\"ok\":false"), std::string::npos) << err;
  EXPECT_NE(err.find("oversized frame"), std::string::npos) << err;

  // Keep streaming the same frame: the front must drop (not buffer) it.
  c.send_raw(std::string(512, 'y'));

  // The newline ends the bad frame; the session keeps serving.
  c.send_raw("\nload --spec grid:side=4,seed=1\n");
  const std::string load = c.read_line();
  EXPECT_TRUE(json_ok(load)) << load;

  // A complete over-limit line (newline in the same chunk) is rejected
  // too, and the next request still works.
  c.send_raw(std::string(300, 'z') + "\nsolve --solver dinic\n");
  const std::string err2 = c.read_line();
  EXPECT_NE(err2.find("oversized frame"), std::string::npos) << err2;
  const std::string solve = c.read_line();
  EXPECT_TRUE(json_ok(solve)) << solve;
  EXPECT_NE(solve.find("\"flow\":90"), std::string::npos) << solve;
  EXPECT_GE(harness.front().telemetry().oversized_frames.load(), 2);
}

TEST_P(ServeFrontTransport, MidRequestDisconnectLeavesTheProcessServing) {
  FrontHarness harness(GetParam());
  {
    Client c(harness);
    c.send_raw("load --spec grid:side=4,seed=1\n");
    EXPECT_TRUE(json_ok(c.read_line()));
    c.send_raw("solve --solver din"); // vanish mid-request
    c.close();
  }
  // The dropped session must not take the front down: a new client gets a
  // fresh session and full service.
  Client c2(harness);
  c2.send_raw("load --spec grid:side=5,seed=1\nsolve --solver dinic\n");
  EXPECT_TRUE(json_ok(c2.read_line()));
  const std::string solve = c2.read_line();
  EXPECT_TRUE(json_ok(solve)) << solve;
  EXPECT_NE(solve.find("\"flow\":149"), std::string::npos) << solve;
}

TEST_P(ServeFrontTransport, MidSolveDisconnectCancelsTheAbandonedWork) {
  // A client that vanishes DURING a long solve must not pin a worker for
  // the solve's natural duration: the I/O plane sees the hangup on its
  // next poll wake (POLLRDHUP/EOF — the event-driven replacement for the
  // old periodic sweep), trips the session's CancelToken, and the solve
  // unwinds at its next cancellation point. The injected stall is 30 s —
  // three orders of magnitude past the asserted cancellation latency — so
  // a pass can only mean the disconnect actually cancelled the work.
  util::FaultInjector::instance().arm("batch.solve:delay:30000");
  auto harness = std::make_unique<FrontHarness>(GetParam());
  {
    Client c(*harness);
    c.send_raw("load --spec grid:side=4,seed=1\n");
    EXPECT_TRUE(json_ok(c.read_line()));
    c.send_raw("solve --solver dinic\n");
    // Let a worker enter the solve (and its injected stall) first, so the
    // disconnect genuinely lands mid-solve.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    c.close();
  }
  // A few poll ticks for the hangup to be seen and the token tripped.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_GE(harness->front().telemetry().hangup_cancels.load(), 1);
  // Tearing down the harness joins the worker pool; with cancellation
  // working, that join completes in poll-tick + cancel-slice time.
  const auto t0 = std::chrono::steady_clock::now();
  harness.reset();
  const double join_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  util::FaultInjector::instance().disarm();
  EXPECT_LT(join_ms, 5000.0)
      << "disconnect did not cancel the in-flight solve";
}

TEST_P(ServeFrontTransport, ConnectsBeyondMaxSessionsAreRejectedPerConnection) {
  core::ServeOptions opt;
  opt.max_sessions = 2;
  FrontHarness harness(GetParam(), opt);

  // Two sessions hold the cap (a round-trip each proves they are live).
  Client a(harness), b(harness);
  a.send_raw("load --spec grid:side=4,seed=1\n");
  b.send_raw("load --spec grid:side=4,seed=1\n");
  EXPECT_TRUE(json_ok(a.read_line()));
  EXPECT_TRUE(json_ok(b.read_line()));

  // The third connection gets one rejection line, then EOF — and neither
  // the process nor the live sessions are harmed.
  Client rejected(harness);
  const std::string reject = rejected.read_line();
  EXPECT_NE(reject.find("\"ok\":false"), std::string::npos) << reject;
  EXPECT_NE(reject.find("session limit"), std::string::npos) << reject;
  EXPECT_TRUE(rejected.at_eof());

  a.send_raw("solve --solver dinic\n");
  EXPECT_TRUE(json_ok(a.read_line()));

  // Freeing one slot readmits new clients (the slot is released when the
  // connection closes after its quit response flushes; poll for it).
  a.send_raw("quit\n");
  EXPECT_TRUE(json_ok(a.read_line()));
  std::string late_response;
  for (int attempt = 0; attempt < 100 && late_response.empty(); ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Client late(harness);
    late.send_raw("stats\n");
    late_response = late.read_line();
    if (late_response.find("session limit") != std::string::npos)
      late_response.clear(); // still at the cap; retry
  }
  EXPECT_TRUE(json_ok(late_response)) << late_response;
  // The stats of a served front carry the transport-plane counters.
  EXPECT_NE(late_response.find("\"front\":{"), std::string::npos)
      << late_response;
  EXPECT_GE(harness.front().sessions_rejected(), 1);
}

TEST_P(ServeFrontTransport, QuitEndsOneSessionShutdownEndsTheFront) {
  FrontHarness harness(GetParam());
  Client a(harness), b(harness);

  a.send_raw("quit\n");
  EXPECT_TRUE(json_ok(a.read_line()));
  EXPECT_TRUE(a.at_eof()); // quit hangs up this session only

  b.send_raw("load --spec grid:side=4,seed=1\n");
  EXPECT_TRUE(json_ok(b.read_line())); // ...the other keeps serving

  b.send_raw("shutdown\n");
  EXPECT_TRUE(json_ok(b.read_line()));
  EXPECT_TRUE(harness.engine().shutdown_requested());
  // ~FrontHarness joins run(); returning from this test proves shutdown
  // actually stops the I/O plane and the worker pool.
}

TEST_P(ServeFrontTransport, ConcurrentSocketClientsAllGetServed) {
  core::ServeOptions opt;
  opt.max_sessions = 8;
  FrontHarness harness(GetParam(), opt);

  std::vector<std::string> flows(6);
  std::vector<std::thread> clients;
  for (int k = 0; k < 6; ++k) {
    clients.emplace_back([&, k] {
      Client c(harness);
      const int side = 4 + (k % 3);
      c.send_raw("load --spec grid:side=" + std::to_string(side) +
                 ",seed=1\nsolve --solver dinic\nquit\n");
      c.read_line(); // load
      flows[k] = c.read_line();
      c.read_line(); // quit
    });
  }
  for (std::thread& t : clients) t.join();
  const char* expected[] = {"\"flow\":90", "\"flow\":149", "\"flow\":208"};
  for (int k = 0; k < 6; ++k) {
    EXPECT_TRUE(json_ok(flows[k])) << k << ": " << flows[k];
    EXPECT_NE(flows[k].find(expected[k % 3]), std::string::npos) << flows[k];
  }
  EXPECT_EQ(harness.front().sessions_accepted(), 6);
}

TEST_P(ServeFrontTransport, HundredsOfIdleConnectionsCostNoThreads) {
  // The point of the event-driven front: connection count scales on file
  // descriptors, not threads. Every thread the front will ever use exists
  // after the first request round-trips; piling on 511 more connections
  // must leave the process thread count flat, and every one of those
  // connections must still get served.
  constexpr int kConnections = 512;
  core::ServeOptions opt;
  opt.max_sessions = kConnections + 8;
  FrontHarness harness(GetParam(), opt);

  std::vector<std::unique_ptr<Client>> clients;
  clients.push_back(std::make_unique<Client>(harness));
  clients.back()->send_raw("session\n");
  EXPECT_TRUE(json_ok(clients.back()->read_line()));

  // A thread born while the baseline settles is a front thread that did
  // not exist after the first request.
  const int threads_before = settled_thread_count();
  while (static_cast<int>(clients.size()) < kConnections) {
    clients.push_back(std::make_unique<Client>(harness));
    ASSERT_TRUE(clients.back()->connected())
        << "connect " << clients.size() << " failed";
  }
  // All open and idle; give the accept path a tick to settle, then prove
  // the thread count did not move with the connection count.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int threads_with_all_open = serve_test::process_thread_count();
  if (threads_before > 0 && threads_with_all_open > 0) {
    EXPECT_EQ(threads_with_all_open, threads_before)
        << kConnections << " open connections changed the thread count";
  }

  // Not just parked: every connection is live and served.
  for (size_t k = 0; k < clients.size(); ++k) {
    clients[k]->send_raw("session\n");
    const std::string response = clients[k]->read_line();
    EXPECT_TRUE(json_ok(response)) << "connection " << k << ": " << response;
  }
  EXPECT_EQ(harness.front().sessions_accepted(), kConnections);
  EXPECT_EQ(harness.front().telemetry().open_connections.load(),
            kConnections);
}

TEST_P(ServeFrontTransport, RunStartsTheWorkersAndNoOtherThread) {
  // The I/O loop runs on the thread that calls run() (here the harness's
  // runner thread), so once the first request round-trips the process runs
  // exactly that thread and the configured workers beyond its baseline.
  const int threads_before = settled_thread_count();
  core::ServeFrontOptions fo;
  fo.workers = 2;
  FrontHarness harness(GetParam(), {}, fo);
  Client c(harness);
  c.send_raw("session\n");
  EXPECT_TRUE(json_ok(c.read_line()));
  const int threads_serving = serve_test::process_thread_count();
  if (threads_before > 0 && threads_serving > 0) {
    EXPECT_EQ(threads_serving, threads_before + 1 + fo.workers)
        << "the front runs a thread beyond its loop and workers";
  }
}

TEST_P(ServeFrontTransport, StatsFrontObjectKeepsItsKeyOrder) {
  // The wire format of the `stats` response's "front" object: the two
  // plane sizes, then the ten counters in docs/BENCH_FORMAT.md order.
  FrontHarness harness(GetParam());
  Client c(harness);
  c.send_raw("stats\n");
  const std::string stats = c.read_line();
  ASSERT_TRUE(json_ok(stats)) << stats;
  const size_t begin = stats.find("\"front\":{");
  ASSERT_NE(begin, std::string::npos) << stats;
  const std::string front =
      stats.substr(begin, stats.find('}', begin) - begin);
  std::vector<std::string> keys; // a flat object: "key":number items
  std::istringstream items(front.substr(front.find('{') + 1));
  for (std::string item; std::getline(items, item, ',');)
    keys.push_back(item.substr(1, item.find('"', 1) - 1));
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "io_threads", "workers", "accepted_unix",
                      "accepted_tcp", "rejected", "open_connections",
                      "requests_queued", "responses_written",
                      "backpressure_pauses", "oversized_frames",
                      "hangup_cancels", "short_writes"}))
      << front;
  // One loop, always: the key stays in aflow-serve-v1 and reads 1.
  EXPECT_NE(front.find("\"io_threads\":1,"), std::string::npos) << front;
  EXPECT_NE(front.find(GetParam() == Transport::kUnix ? "\"accepted_unix\":1"
                                                     : "\"accepted_tcp\":1"),
            std::string::npos)
      << front;
}

TEST_P(ServeFrontTransport, PipelinedRequestsAreAnsweredInPerSessionOrder) {
  // Two sessions each fire one burst of pipelined requests; responses must
  // come back in each session's send order (monotonic per-session ids with
  // the matching request names), regardless of how the worker pool
  // interleaves the two sessions.
  constexpr int kPipelined = 12;
  FrontHarness harness(GetParam());
  Client a(harness), b(harness);

  const auto burst = [](int side) {
    std::string all = "load --spec grid:side=" + std::to_string(side) +
                      ",seed=1\n";
    for (int i = 1; i < kPipelined; ++i)
      all += i % 3 == 1 ? "solve --solver dinic\n" : "session\n";
    return all;
  };
  a.send_raw(burst(4));
  b.send_raw(burst(5));

  const auto check = [&](Client& c, const char* flow, const char* who) {
    for (int i = 0; i < kPipelined; ++i) {
      const std::string response = c.read_line();
      EXPECT_TRUE(json_ok(response)) << who << " " << i << ": " << response;
      EXPECT_EQ(response_id(response), i + 1)
          << who << " response out of order: " << response;
      const char* request = i == 0 ? "\"request\":\"load\""
                            : i % 3 == 1 ? "\"request\":\"solve\""
                                         : "\"request\":\"session\"";
      EXPECT_NE(response.find(request), std::string::npos)
          << who << " " << i << ": " << response;
      if (i % 3 == 1) {
        EXPECT_NE(response.find(flow), std::string::npos) << response;
      }
    }
  };
  check(a, "\"flow\":90", "a");
  check(b, "\"flow\":149", "b");
}

TEST_P(ServeFrontTransport, SlowReaderIsPausedWithoutStallingOtherSessions) {
  // A client that pipelines hard but never reads must be throttled by the
  // front (reads stop at the pipelining limit / write-buffer cap), not
  // buffered without bound — and a well-behaved session sharing the front
  // must keep round-tripping underneath it. When the slow reader finally
  // drains, every response arrives, still in order.
  constexpr int kBurst = 64;
  core::ServeFrontOptions fo;
  fo.max_pipeline = 2;
  fo.max_write_buffer_bytes = 512;
  FrontHarness harness(GetParam(), {}, fo);

  Client slow(harness), steady(harness);
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += "session\n";
  slow.send_raw(burst); // ...and do not read

  // The steady session is unaffected while the slow one sits paused.
  steady.send_raw("load --spec grid:side=4,seed=1\nsolve --solver dinic\n");
  EXPECT_TRUE(json_ok(steady.read_line()));
  const std::string solve = steady.read_line();
  EXPECT_TRUE(json_ok(solve)) << solve;
  EXPECT_NE(solve.find("\"flow\":90"), std::string::npos) << solve;

  // With ~13 bytes of request producing a ~200-byte response against a
  // 512-byte write cap and a pipelining limit of 2, the burst above can
  // only be absorbed by pausing reads on the slow connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_GE(harness.front().telemetry().backpressure_pauses.load(), 1);

  // Drain: the paused connection resumes and serves the whole burst in
  // order.
  for (int i = 0; i < kBurst; ++i) {
    const std::string response = slow.read_line();
    EXPECT_TRUE(json_ok(response)) << "slow " << i << ": " << response;
    EXPECT_EQ(response_id(response), i + 1)
        << "slow response out of order: " << response;
  }
}

TEST_P(ServeFrontTransport, WriteBufferPauseResumesWithNoRequestInFlight) {
  // Regression: a pause decided while a response sat in the write buffer —
  // with NO further request in flight — must clear once the buffer drains.
  // A 1-byte cap makes every response trip the cap check in isolation; if
  // the drained buffer never re-arms POLLIN, the connection goes deaf and
  // the next round's read_line() times out empty.
  core::ServeFrontOptions fo;
  fo.max_write_buffer_bytes = 1;
  FrontHarness harness(GetParam(), {}, fo);
  Client c(harness);
  for (int i = 0; i < 5; ++i) {
    c.send_raw("session\n");
    const std::string response = c.read_line();
    EXPECT_TRUE(json_ok(response)) << "round " << i << ": " << response;
    EXPECT_EQ(response_id(response), i + 1) << response;
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, ServeFrontTransport,
                         ::testing::Values(Transport::kUnix, Transport::kTcp),
                         [](const ::testing::TestParamInfo<Transport>& info) {
                           return serve_test::transport_name(info.param);
                         });

TEST(ServeFrontShutdown, StopWithQueuedRequestsDoesNotHangRun) {
  // Regression: shutdown while a request sits in the worker queue. The
  // queue's close() hands the never-popped items back and the loop clears
  // `executing` on each; without that, the orphaned connection kept
  // `executing` set forever, so the I/O loop (and run()) never finished.
  util::FaultInjector::instance().arm("batch.solve:delay:1000");
  core::ServeFrontOptions fo;
  fo.workers = 1; // one stalled worker means everything else queues
  auto harness = std::make_unique<FrontHarness>(Transport::kUnix,
                                                core::ServeOptions{}, fo);
  Client a(*harness), b(*harness);
  a.send_raw("load --spec grid:side=4,seed=1\n");
  EXPECT_TRUE(json_ok(a.read_line()));
  a.send_raw("solve --solver dinic\n"); // pins the only worker in its delay
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  b.send_raw("session\n"); // queued behind the stalled solve
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const auto t0 = std::chrono::steady_clock::now();
  harness.reset(); // stop() + join run()
  const double teardown_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
  util::FaultInjector::instance().disarm();
  // Bounded by the solve's injected 1 s, nowhere near a hang.
  EXPECT_LT(teardown_ms, 8000.0)
      << "shutdown hung on queued-but-never-served work";
}

TEST(EventLoopTcp, BracketedIpv6ListenAddressIsAccepted) {
  std::uint16_t port = 0;
  int fd = -1;
  try {
    fd = util::listen_tcp("[::1]:0", 16, &port);
  } catch (const std::runtime_error& e) {
    // A host without IPv6 may legitimately fail at bind — but a resolve
    // failure would mean the brackets leaked through to getaddrinfo.
    EXPECT_EQ(std::string(e.what()).find("cannot resolve"), std::string::npos)
        << e.what();
    GTEST_SKIP() << e.what();
  }
  EXPECT_GE(fd, 0);
  EXPECT_GT(port, 0);
  ::close(fd);
  // Brackets without a port are rejected up front.
  EXPECT_THROW(util::listen_tcp("[::1]", 16, nullptr), std::runtime_error);
}

TEST(ServeFrontChaos, ShortWriteFaultTruncatesThroughTheBufferedTcpPath) {
  // serve.write:short through the buffered TCP write path: the client must
  // see a truncated line (no newline) followed by EOF — a dead session,
  // never a parseable response — and the front must keep serving others.
  util::FaultInjector::instance().arm("serve.write:short:count=1");
  auto harness = std::make_unique<FrontHarness>(Transport::kTcp);
  {
    Client c(*harness);
    c.send_raw("load --spec grid:side=4,seed=1\n");
    const std::string raw = c.read_to_eof();
    EXPECT_FALSE(raw.empty()) << "short write should deliver a partial line";
    EXPECT_EQ(raw.find('\n'), std::string::npos)
        << "truncated response unexpectedly complete: " << raw;
    EXPECT_EQ(harness->front().telemetry().short_writes.load(), 1);
  }
  // The poisoned connection died alone; the front still serves.
  Client c2(*harness);
  c2.send_raw("load --spec grid:side=4,seed=1\nsolve --solver dinic\n");
  EXPECT_TRUE(json_ok(c2.read_line()));
  const std::string solve = c2.read_line();
  EXPECT_NE(solve.find("\"flow\":90"), std::string::npos) << solve;
  harness.reset();
  util::FaultInjector::instance().disarm();
}

#else  // _WIN32

TEST(ServeFront, SkippedOnThisPlatform) { GTEST_SKIP(); }

#endif // _WIN32
