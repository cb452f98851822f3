// Order statistics and correctness accounting for the benchmark.
//
// Timings are reported as a median plus the highest percentile of a fixed
// ladder that still has at least kTailMinBeyond samples beyond it, together
// with the sample count — so a tail figure is never read off one or two
// outliers.  Correctness is counted, not asserted: every check a workload
// makes is one attempted operation, and failed_share is failed ÷ attempted.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

/// Arithmetic mean of `values`; 0 when empty.
[[nodiscard]] inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// 1-based nearest rank of percentile `pct` among `n` samples.  The small
/// slack keeps 99.9% of 10,000 at rank 9,990 despite rounding in pct/100.
[[nodiscard]] inline double rank_of(double pct, std::size_t n) {
  return std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
}

/// Nearest-rank percentile (`pct` in (0, 100]) of an ascending vector.
[[nodiscard]] inline double nearest_rank(const std::vector<double>& sorted,
                                         double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = rank_of(pct, sorted.size());
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Samples a tail percentile must leave beyond it to be reported.
inline constexpr std::size_t kTailMinBeyond = 10;

/// The tail figure the percentile rule selects.
struct Tail {
  double pct = 50.0;         ///< percentile reported (99.9, 99, 90 or 50)
  double value = 0.0;        ///< its nearest-rank value
  std::size_t samples = 0;   ///< sample count it was read from
  std::size_t beyond = 0;    ///< samples ranked above it
  bool qualified = false;    ///< false: even p50 has < kTailMinBeyond beyond
};

/// Samples ranked strictly above nearest-rank percentile `pct` of `n`.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double pct) {
  const double rank = rank_of(pct, n);
  const auto at = static_cast<std::size_t>(std::max(rank, 0.0));
  return n > at ? n - at : 0;
}

/// The highest percentile of {99.9, 99, 90, 50} with at least
/// kTailMinBeyond samples beyond it.  With too few samples for any rung the
/// median is returned with `qualified` false.
[[nodiscard]] inline Tail tail_percentile(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  Tail tail;
  tail.samples = values.size();
  for (const double pct : {99.9, 99.0, 90.0, 50.0}) {
    const std::size_t beyond = samples_beyond(values.size(), pct);
    if (beyond >= kTailMinBeyond) {
      tail.pct = pct;
      tail.value = nearest_rank(values, pct);
      tail.beyond = beyond;
      tail.qualified = true;
      return tail;
    }
  }
  tail.value = nearest_rank(values, 50.0);
  tail.beyond = samples_beyond(values.size(), 50.0);
  return tail;
}

/// Correctness accounting: each check is one attempted operation.
class Checks {
 public:
  /// Records one check; returns `ok`.  The first few failures keep their
  /// description for the report.
  bool expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < kKeptFailures) failures_.push_back(what);
    }
    return ok;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// failed ÷ attempted (0 when nothing was checked).
  [[nodiscard]] double failed_share() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  /// True when at least one check ran and none failed.
  [[nodiscard]] bool correct() const { return attempted_ > 0 && failed_ == 0; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  static constexpr std::size_t kKeptFailures = 8;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

}  // namespace perfbench
