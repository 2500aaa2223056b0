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

void Rng::uniform_normal_pairs(std::span<double> uniforms, std::span<double> normals) {
  CDPF_CHECK_MSG(uniforms.size() == normals.size(),
                 "uniform_normal_pairs needs one normal per uniform");
  const std::size_t n = uniforms.size();
  if (n == 0) {
    return;
  }
  // Phase 1: the engine draws of the 2n calls, in their order. A normal
  // served from the cache draws nothing; any other starts a Marsaglia pair,
  // whose u and v are parked in the normals of that call and the next (the
  // v of a pair that ends the batch in `tail_v`). Each pair's s is
  // recomputed in phase 2 by the same arithmetic.
  Xoshiro256StarStar engine = engine_;
  auto next_uniform = [&engine] { return static_cast<double>(engine() >> 11) * 0x1.0p-53; };
  double tail_v = 0.0;
  bool cached = has_cached_gaussian_;
  for (std::size_t i = 0; i < n; ++i) {
    uniforms[i] = next_uniform();
    if (cached) {
      cached = false;
      continue;
    }
    double u, v, s;
    do {
      // uniform(-1.0, 1.0), operation for operation.
      u = -1.0 + (1.0 - -1.0) * next_uniform();
      v = -1.0 + (1.0 - -1.0) * next_uniform();
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    normals[i] = u;
    (i + 1 < n ? normals[i + 1] : tail_v) = v;
    cached = true;
  }
  engine_ = engine;
  // Phase 2: scale every accepted pair by gaussian()'s factor. The first
  // normal is the cached one when there was one.
  std::size_t i = 0;
  if (has_cached_gaussian_) {
    normals[0] = cached_gaussian_;
    i = 1;
  }
  for (; i + 1 < n; i += 2) {
    const double u = normals[i];
    const double v = normals[i + 1];
    const double s = u * u + v * v;
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    normals[i] = u * factor;
    normals[i + 1] = v * factor;
  }
  has_cached_gaussian_ = i < n;
  if (has_cached_gaussian_) {
    // The batch ends on the first half of a pair: its second is cached.
    const double u = normals[i];
    const double s = u * u + tail_v * tail_v;
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    normals[i] = u * factor;
    cached_gaussian_ = tail_v * factor;
  }
}

}  // namespace cdpf::rng
