// The one bearing log-likelihood every tracker evaluates.
//
// CDPF, CDPF-NE, CPF/DPF, GMM-DPF and SDPF all score a bearing through
// bearing_pair_log_likelihood(), in variance form: the inflated noise
//   sigma^2 = sigma0^2 + delta^2 / max(d^2, floor^2)
// needs neither hypot() nor a sqrt, so a pair costs one atan2 and one log.
// The kernel takes precomputed displacement components instead of Vec2
// pairs, so the caller computes dx, dy and d^2 once and shares them between
// its comm-range gate (d^2 <= r_c^2) and the kernel, and can stream them out
// of contiguous double arrays.
//
// The residual is wrapped by geom::wrap_angle, which is bitwise equal to
// std::remainder by 2pi but skips the libm call for |x| < 3pi, the only
// residuals two bearings in (-pi, pi] can produce.
//
// Callers evaluate the kernel only as often as its inputs differ: SDPF's
// particles sit exactly on their host's position ("motes as particles"), so
// it scores each host once and scales all of that host's particles by one
// factor.
#pragma once

#include <algorithm>
#include <cmath>

#include "geom/angles.hpp"
#include "support/check.hpp"

namespace cdpf::core {

/// log(sqrt(2*pi)), the Gaussian normalization constant in the log domain.
inline constexpr double kLogSqrt2Pi = 0.9189385332046727;

/// Precomputed squared parameters of the quantization-inflated bearing
/// likelihood. The base noise sigma0 (rad) is inflated by the angle a
/// spatial resolution delta (m) subtends at distance d,
///   sigma_eff = hypot(sigma0, delta / max(d, floor)),
/// evaluated as a variance:
///   sigma_eff^2 = sigma0^2 + delta^2 / max(d^2, floor^2)
/// — the same quantity (squaring is monotone, so the max commutes) without
/// the hypot or the sqrt of d^2. The floor is delta, or 1e-3 m when delta
/// is 0.
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

}  // namespace cdpf::core
