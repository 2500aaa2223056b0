// A streaming mean (Welford) for Monte-Carlo aggregation, plus the
// compensated accumulators every particle-weight reduction in the library
// must go through (enforced by tools/cdpf_lint.py rule
// `weight-accumulation`).
#pragma once

#include <cmath>
#include <cstddef>

namespace cdpf::support {

/// Neumaier-compensated running sum. Distributed weight exchange adds many
/// small per-particle masses to totals that the paper's invariants compare
/// against each other (weight conservation across divide/combine, overheard
/// total vs. global total); a naive += loses low-order bits exactly where
/// those comparisons live, and the compensation keeps the error independent
/// of the summand count and ordering.
class NeumaierSum {
 public:
  void add(double x) {
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      comp_ += (sum_ - t) + x;
    } else {
      comp_ += (x - t) + sum_;
    }
    sum_ = t;
  }

  /// The compensated total accumulated so far.
  double value() const { return sum_ + comp_; }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// Compensated total of `proj(element)` over a range — the canonical way to
/// sum particle weights (`weight_total(particles, [](auto& p) { return
/// p.weight; })`).
template <typename Range, typename Proj>
double weight_total(const Range& range, Proj proj) {
  NeumaierSum sum;
  for (const auto& element : range) {
    sum.add(proj(element));
  }
  return sum.value();
}

/// Numerically stable running mean (Welford's update).
class RunningStats {
 public:
  void add(double x) {
    ++count_;
    mean_ += (x - mean_) / static_cast<double>(count_);
  }

  double mean() const { return mean_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
};

}  // namespace cdpf::support
