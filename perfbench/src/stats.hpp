// Order statistics for the benchmark's timing samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` in (0, 100] of `samples`; 0 when empty.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// The highest percentile of a fixed ladder that still has at least ten
/// samples strictly beyond its rank; p50 when even that has fewer.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};

inline Tail tail(const std::vector<double>& samples) {
  constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  constexpr double kMinBeyond = 10.0;
  const auto n = static_cast<double>(samples.size());
  Tail t;
  t.samples = samples.size();
  for (const double p : kLadder) {
    if (n - std::ceil(p / 100.0 * n) >= kMinBeyond || p == 50.0) {
      t.percentile = p;
      t.value = percentile(samples, p);
      return t;
    }
  }
  return t;
}

}  // namespace perfbench
