// High-level random number interface used throughout the simulator.
//
// All distribution sampling is implemented here (not via <random>
// distributions) so that a given seed produces identical sequences on every
// platform/compiler — essential for reproducible experiments and goldens.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>

#include "random/engine.hpp"
#include "support/check.hpp"

namespace cdpf::rng {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // The hot scalar draws (uniform / gaussian and their parameterized forms)
  // are defined inline: the filter hot loops make tens of millions of calls
  // per tracking run, and keeping them header-visible lets the per-call
  // dispatch inline away without changing any arithmetic.

  /// Uniform double in [0, 1). 53-bit resolution.
  double uniform() {
    // Take the top 53 bits for a dyadic rational in [0, 1).
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) {
    CDPF_CHECK_MSG(lo <= hi, "uniform(lo, hi) requires lo <= hi");
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection to avoid
  /// modulo bias.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via the Marsaglia polar method (deterministic, no
  /// libm-dependent tail behavior differences).
  double gaussian() {
    if (has_cached_gaussian_) {
      has_cached_gaussian_ = false;
      return cached_gaussian_;
    }
    // Marsaglia polar method: yields two independent normals per acceptance.
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_gaussian_ = v * factor;
    has_cached_gaussian_ = true;
    return u * factor;
  }

  /// uniforms[i] = uniform() and normals[i] = gaussian() for every i, as
  /// the 2n calls uniform(), gaussian(), uniform(), gaussian(), ... would
  /// return them: the batch consumes exactly those calls' engine draws, in
  /// their order, and leaves the cached normal as they would. It runs in two
  /// phases: Marsaglia's accept/reject loop first, with the engine held in
  /// registers, then the scalar libm log and sqrt of every accepted pair.
  /// The spans have one length (an empty batch draws nothing).
  void uniform_normal_pairs(std::span<double> uniforms, std::span<double> normals);

  /// Normal with the given mean / standard deviation (sigma >= 0).
  double gaussian(double mean, double sigma) {
    CDPF_CHECK_MSG(sigma >= 0.0, "gaussian sigma must be non-negative");
    return mean + sigma * gaussian();
  }

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) {
    CDPF_CHECK_MSG(p >= 0.0 && p <= 1.0, "bernoulli p must be within [0, 1]");
    return uniform() < p;
  }

 private:
  Xoshiro256StarStar engine_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace cdpf::rng
