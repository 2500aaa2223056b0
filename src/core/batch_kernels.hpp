// Shared per-pair bearing likelihood kernels.
//
// Kernels take precomputed displacement components instead of Vec2 pairs so
// callers can stream them out of contiguous double arrays, and CDPF's kernel
// works on SQUARED distances throughout: hypot() — correct but sequential —
// never appears on CDPF's hot path; the few places that need a length use
// one sqrt of an already-computed squared distance.
//
// The one exception is bearing_hypot_log_likelihood, the baselines' kernel
// (CPF/DPF, GMM-DPF, SDPF). It keeps the standard-deviation form those
// trackers have always evaluated, so their outputs stay bit-identical to the
// pinned golden digests (tests/golden_outputs_test.cpp).
#pragma once

#include <algorithm>
#include <cmath>

#include "geom/angles.hpp"
#include "geom/vec2.hpp"
#include "support/check.hpp"

namespace cdpf::core {

/// log(sqrt(2*pi)), the Gaussian normalization constant in the log domain.
inline constexpr double kLogSqrt2Pi = 0.9189385332046727;

/// Precomputed squared parameters of the quantization-inflated bearing
/// likelihood. The inflated noise of the AoS formulation was
///   sigma_eff = hypot(sigma0, delta / max(d, floor)),
/// which CDPF evaluates as a variance:
///   sigma_eff^2 = sigma0^2 + delta^2 / max(d^2, floor^2)
/// — the same quantity (squaring is monotone, so the max commutes) without
/// the hypot or the sqrt of d^2.
struct BearingBatchParams {
  double sigma0_sq = 0.0;  // base bearing-noise variance
  double delta_sq = 0.0;   // quantization length, squared
  double floor_sq = 0.0;   // distance-squared floor of the inflation term

  BearingBatchParams(double sigma0, double delta) {
    CDPF_CHECK_MSG(sigma0 > 0.0, "bearing sigma must be positive");
    CDPF_CHECK_MSG(delta >= 0.0, "quantization length must be non-negative");
    sigma0_sq = sigma0 * sigma0;
    delta_sq = delta * delta;
    const double floor = delta > 0.0 ? delta : 1e-3;
    floor_sq = floor * floor;
  }
};

/// Log-likelihood of one bearing measurement `z` for an evaluation point
/// displaced (dx, dy) = p - sensor from the measuring sensor, with
/// d2 = dx*dx + dy*dy. The caller computes the displacement once and shares
/// it between the comm-range gate and this kernel.
inline double bearing_pair_log_likelihood(double z, double dx, double dy, double d2,
                                          const BearingBatchParams& params) {
  // Debug-only: the kernel runs millions of times per iteration, so the
  // precondition compiles out of release builds (NDEBUG).
  CDPF_ASSERT(d2 >= 0.0);
  const double residual = geom::angle_difference(z, std::atan2(dy, dx));
  const double sigma_sq =
      params.sigma0_sq + params.delta_sq / std::max(d2, params.floor_sq);
  return -0.5 * std::log(sigma_sq) - kLogSqrt2Pi -
         0.5 * residual * residual / sigma_sq;
}

/// Parameters of the baselines' bearing likelihood: base noise `sigma0`
/// (rad), spatial resolution `delta` (m) folded in as extra angular noise
/// delta / d, and the distance `floor` (m) that keeps that term finite. The
/// floor is the caller's: CPF and GMM-DPF use max(delta, 1e-3), SDPF uses
/// delta > 0 ? delta : 1e-3.
struct BearingHypotParams {
  double sigma0 = 0.0;
  double delta = 0.0;
  double floor = 0.0;
};

/// Log-likelihood of bearing `z` measured at `sensor` for a target at `p`,
/// in standard-deviation form:
///   sigma = hypot(sigma0, delta / max(|p - sensor|, floor)),
///   log N(wrap(z - atan2(p - sensor)); 0, sigma^2).
/// Mathematically the quantity bearing_pair_log_likelihood evaluates in
/// variance form, but not bit for bit; the baselines keep this form until
/// their golden digests are deliberately re-pinned.
inline double bearing_hypot_log_likelihood(double z, geom::Vec2 sensor, geom::Vec2 p,
                                           const BearingHypotParams& params) {
  const double d = std::max(geom::distance(sensor, p), params.floor);
  const double sigma = std::hypot(params.sigma0, params.delta / d);
  CDPF_CHECK_MSG(sigma > 0.0, "inflated sigma must be positive");
  const double residual = geom::angle_difference(z, (p - sensor).angle());
  const double u = residual / sigma;
  return -std::log(sigma) - kLogSqrt2Pi - 0.5 * u * u;
}

}  // namespace cdpf::core
