// Shared helpers for the reproduction benches: wall-clock timing of the CPU
// baseline and consistent table printing. Each bench declares its flags
// and parses argv with util/args.hpp (shared with the aflow CLI and serve).
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/args.hpp"
#include "util/json.hpp"

namespace aflow::bench {

/// Appends one aflow-bench-v1 gate record — the single definition of the
/// {name, timed, speedup, threshold, pass} shape shared by the gated
/// benches, so JSON consumers see one schema. An untimed gate (smoke mode)
/// or a threshold <= 0 passes by definition.
inline void json_gate(util::JsonWriter& j, std::string_view name, bool timed,
                      double speedup, double threshold) {
  j.begin_object();
  j.field("name", name);
  j.field("timed", timed);
  j.field("speedup", speedup);
  j.field("threshold", threshold);
  j.field("pass", !timed || threshold <= 0.0 || speedup >= threshold);
  j.end_object();
}

/// Median wall-clock seconds of `fn` over `reps` runs (after one warm-up).
inline double time_median(const std::function<void()>& fn, int reps = 5) {
  using Clock = std::chrono::steady_clock;
  fn(); // warm-up
  std::vector<double> times;
  times.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

inline void rule(char c = '-', int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

inline void banner(const std::string& title) {
  rule('=');
  std::printf("%s\n", title.c_str());
  rule('=');
}

} // namespace aflow::bench
