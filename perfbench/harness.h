// The benchmark harness: one run of one workload.
//
// A workload is a function that drives the library through a Run:
//
//   run.setup(fn)    — times fn (tree generation, topology build, initial
//                      converged routes) a few times, then again before
//                      every pass for ~5% of the pass's time, so the
//                      samples span the whole run; setup_s is the median
//                      per-call time over samples of >= 20 ms each.
//   run.measure(fn)  — calls fn(traced) pass after pass for the run's
//                      seconds, and at least as many passes per phase as
//                      the workload asks for; batch_s is the mean pass
//                      wall time (the
//                      measured time over the passes completed).  With
//                      --trace 1 the first half of the time runs untraced
//                      and the second half runs with the obs metrics
//                      registry and tracer enabled, so the workload can
//                      split its pass into per-layer figures and the two
//                      halves give the tracing overhead.  With --trace 0
//                      obs is never configured at all.
//   run.expect(...)  — one correctness check (counted in failed_share).
//   run.figure(...)  — a named end-to-end figure for the human report.
//   run.layer(...)   — a per-layer metric (traced run only).
//
// finish() prints the report: human lines first, then, as the last line of
// stdout, one JSON object with exactly correct / attempted / failed /
// metrics.  Untraced runs put every end-to-end metric in `metrics`, traced
// runs every per-layer metric; a layer a workload never calls reads 0.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/clock.h"
#include "perfbench/stats.h"
#include "src/util/parallel.h"

namespace perfbench {

/// One metric definition: the name and unit BENCHMARK.json lists (which
/// stays the one source of each metric's direction and bound), plus (for
/// per-layer metrics) which end-to-end figure on which workload it should
/// move.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;   ///< per-layer only: the figure/workload it explains
};

[[nodiscard]] const std::vector<MetricDef>& end_to_end_defs();
[[nodiscard]] const std::vector<MetricDef>& per_layer_defs();

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;  ///< every parallel call uses exactly this many workers
};

/// Wall time and (traced runs only) resource deltas of one call.
struct CallCost {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  ///< user + sys, all threads
  double sys_ms = 0.0;
  double minor_faults = 0.0;
};

class Run {
 public:
  /// `default_seed` is the workload's recorded seed: checks against
  /// recorded fingerprints apply only when the run uses it.
  Run(const Config& config, std::uint64_t default_seed);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] bool default_seed() const { return seed_ == default_seed_; }
  [[nodiscard]] int threads() const { return config_.threads; }
  [[nodiscard]] bool traced() const { return config_.trace; }
  [[nodiscard]] int traced_passes() const {
    return static_cast<int>(traced_batches_.size());
  }

  /// Times `fn()`; resource deltas are read only in traced runs.
  template <typename Fn>
  CallCost cost(Fn&& fn) {
    const Usage before = config_.trace ? usage_now() : Usage{};
    const double t0 = now_s();
    fn();
    CallCost c;
    c.wall_ms = (now_s() - t0) * 1e3;
    if (config_.trace) {
      const Usage after = usage_now();
      c.cpu_ms = (after.user_ms + after.sys_ms) -
                 (before.user_ms + before.sys_ms);
      c.sys_ms = after.sys_ms - before.sys_ms;
      c.minor_faults = after.minor_faults - before.minor_faults;
    }
    return c;
  }

  /// Runs `fn` as the workload's set-up kMinSetups times, and keeps it to
  /// sample again before every pass (kSetupShare of the pass's time): fn
  /// must leave the state its first call built in place.  A sample times
  /// as many consecutive calls as fill kSetupSampleS.  The host's speed
  /// comes in regimes of seconds (see DESIGN.md); samples spread over the
  /// run and batched over many calls follow the run's mix of regimes
  /// instead of the one that held when it started.
  template <typename Fn>
  void setup(Fn&& fn) {
    setup_fn_ = std::forward<Fn>(fn);
    while (setup_s_.size() < kMinSetups) setup_sample();
  }

  /// Calls `pass(bool traced)` until the run's seconds are spent (see the
  /// file comment); at least `min_passes` passes per phase.
  template <typename Pass>
  void measure(Pass&& pass, std::size_t min_passes = 1) {
    const double untraced = config_.trace ? config_.seconds / 2.0
                                          : config_.seconds;
    loop(untraced, false, pass, batches_, min_passes);
    if (config_.trace) {
      set_obs(true);
      loop(config_.seconds / 2.0, true, pass, traced_batches_, min_passes);
      set_obs(false);
    }
    setup_fn_ = nullptr;  // it refers to the workload's locals
  }

  /// Calls `fn()` with the process-wide pool pinned to one worker, then
  /// pins it back to nproc: the untimed reference run of a workload's
  /// 1-thread vs nproc identity check.
  template <typename Fn>
  void single_threaded(Fn&& fn) {
    aspen::parallel::set_num_threads(1);
    fn();
    aspen::parallel::set_num_threads(config_.threads);
  }

  bool expect(bool ok, const std::string& what) {
    return checks_.expect(ok, what);
  }

  /// A named end-to-end figure for the human report, with its sample count.
  void figure(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// Median and the percentile-rule tail of `samples` as two figures,
  /// `<stem>_p50` and `<stem>_p<pct>`.
  void figure_tail(const std::string& stem, const std::vector<double>& samples,
                   const std::string& unit);
  /// Sets a per-layer metric; the name must be in per_layer_defs().
  void layer(const std::string& name, double value);
  /// Records one workload input for the run envelope.
  void input(const std::string& key, const std::string& value);

  /// Prints the report and returns the process exit code (0 iff correct).
  int finish();

  /// Reads an obs counter collected since the last take_counters() (or
  /// since tracing was enabled).  Traced passes read what they need and
  /// call take_counters() before returning: obs is switched off, and its
  /// data dropped, when the traced phase ends.
  [[nodiscard]] static double counter(const char* name);
  static void take_counters();
  /// routing.rows_full_recompute without the rows of full computations
  /// (the engine counts both): the incremental engine's full rows.
  [[nodiscard]] static double incremental_full_rows(std::uint64_t num_dests);

 private:
  static constexpr std::size_t kMinSetups = 3;
  static constexpr double kSetupShare = 0.05;
  static constexpr double kSetupSampleS = 0.02;

  void setup_sample() {
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < setup_group_; ++i) setup_fn_();
    const double per_call = (now_s() - t0) / static_cast<double>(setup_group_);
    setup_s_.push_back(per_call);
    setup_calls_ += setup_group_;
    setup_group_ =
        per_call >= kSetupSampleS
            ? 1
            : static_cast<std::uint64_t>(kSetupSampleS / per_call) + 1;
  }

  template <typename Pass>
  void loop(double budget_s, bool traced, Pass& pass,
            std::vector<double>& batches, std::size_t min_passes) {
    const double deadline = now_s() + budget_s;
    double last = 0.0;
    do {
      const double sampled = now_s();
      while (setup_fn_) {
        setup_sample();
        if (now_s() - sampled >= kSetupShare * last) break;
      }
      const double t0 = now_s();
      pass(traced);
      last = now_s() - t0;
      batches.push_back(last);
    } while (batches.size() < min_passes || now_s() + last <= deadline);
  }

  /// Enables (metrics + tracer) or fully disables obs collection.
  static void set_obs(bool on);
  void print_envelope() const;

  Config config_;
  std::uint64_t default_seed_;
  std::uint64_t seed_;
  Checks checks_;
  std::function<void()> setup_fn_;
  std::vector<double> setup_s_;  ///< per-call time of each sample
  std::uint64_t setup_calls_ = 0;
  std::uint64_t setup_group_ = 1;  ///< calls in the next sample
  std::vector<double> batches_;
  std::vector<double> traced_batches_;
  std::vector<std::string> figure_lines_;
  std::map<std::string, double> layers_;
  std::vector<std::pair<std::string, std::string>> inputs_;
};

// ---- workloads (one source file each) -----------------------------------

struct Workload {
  const char* name;
  std::uint64_t default_seed;
  void (*run)(Run& run);
};

[[nodiscard]] const std::vector<Workload>& workloads();

void run_fabric(Run& run);
void run_flow_chaos(Run& run);
void run_serve(Run& run);
void run_survive(Run& run);

}  // namespace perfbench
