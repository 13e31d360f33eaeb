// Order statistics for the benchmark's timing samples.
//
// Every timing is reported as a median plus a tail: the highest percentile
// that still has at least kTailBeyond samples above it, so the tail never
// rests on a handful of outliers. With n sorted samples that is the
// (n - kTailBeyond)-th smallest, whose percentile rank is 100 (n - 10) / n.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kTailBeyond = 10;

/// Percentile p in [0, 100] with linear interpolation between closest ranks
/// (the "inclusive" method of Python's statistics.quantiles and numpy's
/// default). Throws on an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of empty sample");
  std::sort(v.begin(), v.end());
  const double pos = (p / 100.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

struct Tail {
  double value = 0.0;
  double pct = 0.0;   ///< percentile rank of `value`
  std::size_t n = 0;  ///< samples the tail was taken from
};

/// The highest percentile with at least kTailBeyond samples beyond it.
/// Throws when fewer than kTailBeyond + 1 samples exist: such a tail would
/// be a single extreme sample, which is not a percentile worth gating on.
inline Tail tail(std::vector<double> v) {
  if (v.size() <= kTailBeyond) {
    throw std::invalid_argument("tail needs more than 10 samples");
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  Tail t;
  t.value = v[n - kTailBeyond - 1];
  t.pct = 100.0 * static_cast<double>(n - kTailBeyond) / static_cast<double>(n);
  t.n = n;
  return t;
}

/// Timing samples of one kind, split by whether the step they were taken in
/// was clean: the hypervisor stole little enough CPU time during it.
struct Samples {
  std::vector<double> all;
  std::vector<double> clean;  ///< from clean steps
  std::size_t step_begin = 0; ///< first sample of the current step in `all`

  void push(double t) { all.push_back(t); }
  /// Closes the current step: its samples count as clean or not.
  void end_step(bool clean_step) {
    if (clean_step) {
      clean.insert(clean.end(),
                   all.begin() + static_cast<std::ptrdiff_t>(step_begin), all.end());
    }
    step_begin = all.size();
  }
  /// What the metrics are taken from: the clean samples when there are at
  /// least `min` of them, else all.
  const std::vector<double>& reported(std::size_t min) const {
    return clean.size() >= min ? clean : all;
  }
};

}  // namespace perfbench
