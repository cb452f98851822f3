// The benchmark's one host clock, plus process resource usage.
//
// Every wall time the benchmark reports is a difference of now_s() reads;
// nothing else in the benchmark touches a clock.  Host time only ever
// prices the library's work — it is never fed back into a simulated result.
#pragma once

#include <sys/resource.h>

#include <chrono>

namespace perfbench {

/// Seconds on a monotonic host clock (differences only).
[[nodiscard]] inline double now_s() {
  // aspen-lint: allow(wall-clock) -- the benchmark's single host clock: it times calls into the library and never feeds a simulated result
  return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                           .time_since_epoch())
      .count();
}

/// Process-wide resource counters (all threads), from getrusage.
struct Usage {
  double user_ms = 0.0;
  double sys_ms = 0.0;
  double minor_faults = 0.0;
  double max_rss_kb = 0.0;  ///< high-water resident set
};

[[nodiscard]] inline Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  Usage u;
  u.user_ms = ms(ru.ru_utime);
  u.sys_ms = ms(ru.ru_stime);
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.max_rss_kb = static_cast<double>(ru.ru_maxrss);
  return u;
}

}  // namespace perfbench
