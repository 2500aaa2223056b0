// Small fixed-size dense linear algebra.
//
// Its callers work on 2x2 systems: the covariances of GMM-DPF's Gaussian
// mixture and the normal equations of range-based localization. A
// stack-allocated Mat<R,C> with unrolled loops is simpler and faster there
// than a general matrix library.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <initializer_list>

#include "support/check.hpp"

namespace cdpf::linalg {

template <std::size_t R, std::size_t C>
class Mat {
  static_assert(R > 0 && C > 0, "matrix dimensions must be positive");

 public:
  constexpr Mat() = default;

  /// Row-major brace construction: Mat<2,2>{{1,2},{3,4}} style via flat list.
  constexpr Mat(std::initializer_list<double> flat) {
    CDPF_CHECK_MSG(flat.size() == R * C, "initializer size must equal R*C");
    std::size_t i = 0;
    for (const double v : flat) {
      data_[i++] = v;
    }
  }

  static constexpr std::size_t rows() { return R; }
  static constexpr std::size_t cols() { return C; }

  constexpr double& operator()(std::size_t r, std::size_t c) {
    CDPF_ASSERT(r < R && c < C);
    return data_[r * C + c];
  }
  constexpr double operator()(std::size_t r, std::size_t c) const {
    CDPF_ASSERT(r < R && c < C);
    return data_[r * C + c];
  }

  /// Vector-style element access; only enabled for column vectors.
  constexpr double& operator[](std::size_t i)
    requires(C == 1)
  {
    CDPF_ASSERT(i < R);
    return data_[i];
  }
  constexpr double operator[](std::size_t i) const
    requires(C == 1)
  {
    CDPF_ASSERT(i < R);
    return data_[i];
  }

  static constexpr Mat identity()
    requires(R == C)
  {
    Mat m;
    for (std::size_t i = 0; i < R; ++i) {
      m(i, i) = 1.0;
    }
    return m;
  }

  constexpr Mat operator+(const Mat& rhs) const {
    Mat out;
    for (std::size_t i = 0; i < R * C; ++i) {
      out.data_[i] = data_[i] + rhs.data_[i];
    }
    return out;
  }

  constexpr Mat operator-(const Mat& rhs) const {
    Mat out;
    for (std::size_t i = 0; i < R * C; ++i) {
      out.data_[i] = data_[i] - rhs.data_[i];
    }
    return out;
  }

  constexpr Mat operator*(double s) const {
    Mat out;
    for (std::size_t i = 0; i < R * C; ++i) {
      out.data_[i] = data_[i] * s;
    }
    return out;
  }

  constexpr Mat operator-() const { return *this * -1.0; }

  constexpr Mat& operator+=(const Mat& rhs) { return *this = *this + rhs; }
  constexpr Mat& operator-=(const Mat& rhs) { return *this = *this - rhs; }

  constexpr bool operator==(const Mat&) const = default;

  template <std::size_t K>
  constexpr Mat<R, K> operator*(const Mat<C, K>& rhs) const {
    Mat<R, K> out;
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t c = 0; c < C; ++c) {
        const double a = (*this)(r, c);
        if (a == 0.0) {
          continue;  // skipping structural zeros is cheap
        }
        for (std::size_t k = 0; k < K; ++k) {
          out(r, k) += a * rhs(c, k);
        }
      }
    }
    return out;
  }

  constexpr Mat<C, R> transposed() const {
    Mat<C, R> out;
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t c = 0; c < C; ++c) {
        out(c, r) = (*this)(r, c);
      }
    }
    return out;
  }

 private:
  std::array<double, R * C> data_{};
};

template <std::size_t R, std::size_t C>
constexpr Mat<R, C> operator*(double s, const Mat<R, C>& m) {
  return m * s;
}

template <std::size_t N>
using Vec = Mat<N, 1>;

/// Symmetric part of a square matrix; keeps covariance updates symmetric in
/// the presence of floating-point drift.
template <std::size_t N>
constexpr Mat<N, N> symmetrized(const Mat<N, N>& m) {
  return (m + m.transposed()) * 0.5;
}

/// Gauss-Jordan inverse with partial pivoting. Throws cdpf::Error when the
/// matrix is (numerically) singular.
template <std::size_t N>
Mat<N, N> inverse(const Mat<N, N>& m) {
  Mat<N, N> a = m;
  Mat<N, N> inv = Mat<N, N>::identity();
  for (std::size_t col = 0; col < N; ++col) {
    // Partial pivot: pick the largest |entry| in this column.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < N; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) {
        pivot = r;
      }
    }
    CDPF_CHECK_MSG(std::abs(a(pivot, col)) > 1e-300, "matrix is singular");
    if (pivot != col) {
      for (std::size_t c = 0; c < N; ++c) {
        std::swap(a(col, c), a(pivot, c));
        std::swap(inv(col, c), inv(pivot, c));
      }
    }
    const double scale = 1.0 / a(col, col);
    for (std::size_t c = 0; c < N; ++c) {
      a(col, c) *= scale;
      inv(col, c) *= scale;
    }
    for (std::size_t r = 0; r < N; ++r) {
      if (r == col) {
        continue;
      }
      const double f = a(r, col);
      if (f == 0.0) {
        continue;
      }
      for (std::size_t c = 0; c < N; ++c) {
        a(r, c) -= f * a(col, c);
        inv(r, c) -= f * inv(col, c);
      }
    }
  }
  return inv;
}

/// Lower-triangular Cholesky factor L with m = L * L^T. Throws cdpf::Error
/// when m is not (numerically) positive definite.
template <std::size_t N>
Mat<N, N> cholesky(const Mat<N, N>& m) {
  Mat<N, N> l;
  for (std::size_t r = 0; r < N; ++r) {
    for (std::size_t c = 0; c <= r; ++c) {
      double s = m(r, c);
      for (std::size_t k = 0; k < c; ++k) {
        s -= l(r, k) * l(c, k);
      }
      if (r == c) {
        CDPF_CHECK_MSG(s > 0.0, "matrix is not positive definite");
        l(r, r) = std::sqrt(s);
      } else {
        l(r, c) = s / l(c, c);
      }
    }
  }
  return l;
}

/// Determinant via an LU-style elimination (adequate for N <= 4 here).
template <std::size_t N>
double determinant(const Mat<N, N>& m) {
  Mat<N, N> a = m;
  double det = 1.0;
  for (std::size_t col = 0; col < N; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < N; ++r) {
      if (std::abs(a(r, col)) > std::abs(a(pivot, col))) {
        pivot = r;
      }
    }
    if (std::abs(a(pivot, col)) == 0.0) {
      return 0.0;
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < N; ++c) {
        std::swap(a(col, c), a(pivot, c));
      }
      det = -det;
    }
    det *= a(col, col);
    for (std::size_t r = col + 1; r < N; ++r) {
      const double f = a(r, col) / a(col, col);
      for (std::size_t c = col; c < N; ++c) {
        a(r, c) -= f * a(col, c);
      }
    }
  }
  return det;
}

}  // namespace cdpf::linalg
