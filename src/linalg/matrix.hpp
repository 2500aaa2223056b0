// 2x2 dense linear algebra.
//
// Every tracker works in the plane, so the only systems any figure solves
// are 2x2: the normal equations of range-based localization.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <utility>

#include "geom/vec2.hpp"
#include "support/check.hpp"

namespace cdpf::linalg {

/// Row-major 2x2 matrix, an aggregate: Mat2{a00, a01, a10, a11}, zero when
/// default-initialized.
struct Mat2 {
  std::array<double, 4> entries{};

  constexpr double& operator()(std::size_t r, std::size_t c) {
    CDPF_ASSERT(r < 2 && c < 2);
    return entries[r * 2 + c];
  }
  constexpr double operator()(std::size_t r, std::size_t c) const {
    CDPF_ASSERT(r < 2 && c < 2);
    return entries[r * 2 + c];
  }
};

/// m * v; zero entries of m are skipped (a zero times an infinite or NaN
/// entry of v adds nothing).
inline geom::Vec2 operator*(const Mat2& m, geom::Vec2 v) {
  const std::array<double, 2> in{v.x, v.y};
  std::array<double, 2> out{};
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      const double a = m(r, c);
      if (a == 0.0) {
        continue;
      }
      out[r] += a * in[c];
    }
  }
  return {out[0], out[1]};
}

/// Gauss-Jordan inverse with partial pivoting. Throws cdpf::Error when the
/// matrix is (numerically) singular.
inline Mat2 inverse(const Mat2& m) {
  Mat2 a = m;
  Mat2 inv{1.0, 0.0, 0.0, 1.0};
  for (std::size_t col = 0; col < 2; ++col) {
    // Partial pivot: the larger |entry| of this column at or below the
    // diagonal.
    const std::size_t pivot =
        col == 0 && std::abs(a(1, 0)) > std::abs(a(0, 0)) ? 1 : col;
    CDPF_CHECK_MSG(std::abs(a(pivot, col)) > 1e-300, "matrix is singular");
    if (pivot != col) {
      for (std::size_t c = 0; c < 2; ++c) {
        std::swap(a(col, c), a(pivot, c));
        std::swap(inv(col, c), inv(pivot, c));
      }
    }
    const double scale = 1.0 / a(col, col);
    for (std::size_t c = 0; c < 2; ++c) {
      a(col, c) *= scale;
      inv(col, c) *= scale;
    }
    const std::size_t r = 1 - col;
    const double f = a(r, col);
    if (f == 0.0) {
      continue;
    }
    for (std::size_t c = 0; c < 2; ++c) {
      a(r, c) -= f * a(col, c);
      inv(r, c) -= f * inv(col, c);
    }
  }
  return inv;
}

/// Determinant by elimination with partial pivoting; 0 when a pivot
/// column is all zero.
inline double determinant(const Mat2& m) {
  Mat2 a = m;
  double det = 1.0;
  if (std::abs(a(1, 0)) > std::abs(a(0, 0))) {
    std::swap(a(0, 0), a(1, 0));
    std::swap(a(0, 1), a(1, 1));
    det = -det;
  }
  if (std::abs(a(0, 0)) == 0.0) {
    return 0.0;
  }
  det *= a(0, 0);
  const double f = a(1, 0) / a(0, 0);
  const double a11 = a(1, 1) - f * a(0, 1);
  if (std::abs(a11) == 0.0) {
    return 0.0;
  }
  return det * a11;
}

}  // namespace cdpf::linalg
