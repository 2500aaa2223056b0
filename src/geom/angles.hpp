// Angle arithmetic for bearings-only measurements.
//
// Bearings live on the circle, so residuals must be wrapped; doing this
// naively (linear subtraction) is a classic bearings-only-tracking bug this
// header exists to prevent.
#pragma once

#include <cmath>
#include <numbers>

namespace cdpf::geom {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// Wrap an angle to (-pi, pi].
///
/// Bitwise equal to wrapping std::remainder(radians, 2pi), without the libm
/// call for the inputs bearing residuals produce. For |x| <= pi the IEEE
/// remainder is x itself (at |x| == pi the quotient ties to the even 0). For
/// pi < |x| < 3pi the quotient rounds to +-1 and the remainder is
/// sign(x) * (|x| - 2pi); that subtraction is exact (Sterbenz: 2pi lies
/// within a factor of two of |x|), and taking the sign afterwards gives the
/// zero at |x| == 2pi the sign of x, as remainder does. The strict
/// `< 3 * kPi` is safe whichever way the product rounds, since no double
/// lies between it and the exact 3pi. Larger magnitudes, infinities and NaN
/// keep std::remainder.
inline double wrap_angle(double radians) {
  const double magnitude = std::abs(radians);
  double a;
  if (magnitude <= kPi) {
    a = radians;
  } else if (magnitude < 3.0 * kPi) {
    a = std::copysign(1.0, radians) * (magnitude - kTwoPi);
  } else {
    a = std::remainder(radians, kTwoPi);
  }
  if (a <= -kPi) {
    a += kTwoPi;
  }
  return a;
}

}  // namespace cdpf::geom
