// Sample statistics for the benchmark's reported numbers.
//
// Timings are reported as a median plus the highest percentile that still
// has at least ten samples beyond it, always with the sample count, so a
// "p99" is never quoted from a run too short to carry one.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace repobench {

// 1-based nearest rank of the p-th percentile among n samples; the epsilon
// keeps p/100*n from rounding up past an exact integer (99.9% of 10000).
inline double nearest_rank(std::size_t n, double p) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

// Nearest-rank percentile of an ascending-sorted sample: the smallest value
// with at least p% of the samples at or below it.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = nearest_rank(sorted.size(), p);
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(sorted.size() - 1, static_cast<std::size_t>(rank) - 1);
  return sorted[idx];
}

// Samples strictly beyond the nearest-rank p-th percentile position.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double rank = nearest_rank(n, p);
  const std::size_t at = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return n > at ? n - at : 0;
}

inline std::vector<double> sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

inline double median(std::vector<double> v) { return percentile_sorted(sorted(std::move(v)), 50.0); }

inline double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

// Geometric mean of positive values: one figure over several operation
// kinds in which each kind weighs the same, whatever its absolute time.
inline double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

struct Tail {
  double pct = 50.0;       // the percentile reported
  double value = 0.0;      // its value
  std::size_t samples = 0; // sample count it was taken from
  bool supported = false;  // at least ten samples beyond `pct`
};

// Percentile `p` if the sample supports it (ten samples beyond), else the
// highest of {50, 90, 99, 99.9, 99.99} below it that does — what a
// fixed-percentile limit checks. Falls back to the median (supported =
// false) when even p50 lacks ten samples beyond it.
inline Tail tail_at_most(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  Tail t;
  t.samples = v.size();
  for (const double q : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (q > p || samples_beyond(v.size(), q) < 10) break;
    t.pct = q;
    t.supported = true;
  }
  t.value = percentile_sorted(v, t.pct);
  return t;
}

// The highest percentile with at least ten samples beyond it.
inline Tail supported_tail(std::vector<double> v) { return tail_at_most(std::move(v), 100.0); }

}  // namespace repobench
