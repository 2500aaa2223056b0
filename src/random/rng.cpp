#include "random/rng.hpp"

#include <cmath>

#include "support/check.hpp"

namespace cdpf::rng {

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  CDPF_CHECK_MSG(n > 0, "uniform_index(n) requires n > 0");
  // Rejection sampling over the largest multiple of n below 2^64.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t draw;
  do {
    draw = engine_();
  } while (draw >= limit);
  return draw % n;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  CDPF_CHECK_MSG(!weights.empty(), "categorical needs at least one weight");
  double total = 0.0;
  for (const double w : weights) {
    CDPF_CHECK_MSG(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  CDPF_CHECK_MSG(total > 0.0, "categorical needs a positive total weight");
  double u = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0.0) {
      return i;
    }
  }
  // Floating-point accumulation can land exactly on the boundary; return the
  // last index with positive weight.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) {
      return i;
    }
  }
  return weights.size() - 1;
}

}  // namespace cdpf::rng
