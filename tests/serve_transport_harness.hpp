// Shared test harness for exercising core::ServeFront over its real
// transports. Both serve-front suites (test_serve_front.cpp,
// test_serve_concurrent.cpp) parameterize over Transport so every
// session-layer contract is proven on the Unix socket AND the TCP path
// with the same assertions. POSIX-only — include under #ifndef _WIN32.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "core/serve_front.hpp"

namespace serve_test {

enum class Transport { kUnix, kTcp };

inline const char* transport_name(Transport t) {
  return t == Transport::kUnix ? "UnixSocket" : "Tcp";
}

/// Engine + front + runner thread (the front's I/O loop), configured for
/// one transport and torn down in order. Front options may be customized
/// (backpressure knobs); the harness always owns the listen target.
class FrontHarness {
 public:
  explicit FrontHarness(Transport transport,
                        aflow::core::ServeOptions engine_options = {},
                        aflow::core::ServeFrontOptions front_options = {})
      : transport_(transport), engine_(engine_options) {
    if (transport == Transport::kUnix)
      front_options.socket_path =
          "/tmp/aflow_front_test_" + std::to_string(::getpid()) + "_" +
          std::to_string(instance_counter_++) + ".sock";
    else
      front_options.tcp_address = "127.0.0.1:0"; // kernel-assigned port
    front_ = std::make_unique<aflow::core::ServeFront>(engine_, front_options);
    front_->start();
    runner_ = std::thread([this] { front_->run(); });
  }

  ~FrontHarness() {
    front_->stop();
    runner_.join();
  }

  Transport transport() const { return transport_; }
  const std::string& path() const { return front_->options().socket_path; }
  std::uint16_t port() const { return front_->tcp_port(); }
  aflow::core::ServeEngine& engine() { return engine_; }
  aflow::core::ServeFront& front() { return *front_; }

 private:
  static inline int instance_counter_ = 0;
  Transport transport_;
  aflow::core::ServeEngine engine_;
  std::unique_ptr<aflow::core::ServeFront> front_;
  std::thread runner_;
};

/// Blocking line-oriented client for either transport, with a receive
/// deadline so a server bug fails the test instead of hanging it.
class Client {
 public:
  explicit Client(const FrontHarness& harness)
      : Client(harness.transport(), harness.path(), harness.port()) {}

  Client(Transport transport, const std::string& path, std::uint16_t port) {
    if (transport == Transport::kUnix) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      EXPECT_GE(fd_, 0);
      set_deadline();
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
      connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) == 0;
      EXPECT_TRUE(connected_) << path;
    } else {
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      EXPECT_GE(fd_, 0);
      set_deadline();
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) == 0;
      EXPECT_TRUE(connected_) << "127.0.0.1:" << port;
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
  }

  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return connected_; }

  void send_raw(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
  }

  /// One response line (without the newline); "" on EOF or timeout.
  std::string read_line() {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// Whatever bytes remain until the server hangs up (for asserting
  /// truncated, newline-less output from an injected short write).
  std::string read_to_eof() {
    std::string out = buf_;
    buf_.clear();
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return out;
      out.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True when the server hung up (EOF within the receive deadline).
  bool at_eof() {
    char c;
    return ::recv(fd_, &c, 1, 0) == 0;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  void set_deadline() {
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

/// This process's live thread count (/proc/self/status); -1 where the
/// procfs field is unavailable — callers should skip the assertion then.
inline int process_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0)
      return std::atoi(line.c_str() + std::strlen("Threads:"));
  return -1;
}

} // namespace serve_test
