// Unit tests for the 2x2 linear algebra of range-based localization.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "linalg/matrix.hpp"
#include "random/rng.hpp"
#include "support/check.hpp"

namespace cdpf::linalg {
namespace {

void expect_near(const Mat2& a, const Mat2& b, double tol = 1e-12) {
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_NEAR(a(r, c), b(r, c), tol) << "at (" << r << "," << c << ")";
    }
  }
}

Mat2 product(const Mat2& a, const Mat2& b) {
  Mat2 out;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      out(r, c) = a(r, 0) * b(0, c) + a(r, 1) * b(1, c);
    }
  }
  return out;
}

const Mat2 kIdentity{1, 0, 0, 1};

// Bit patterns, so a changed rounding or a flipped zero sign fails too.
void expect_bits(const Mat2& m, const std::array<double, 4>& expected) {
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m(i / 2, i % 2)),
              std::bit_cast<std::uint64_t>(expected[i]))
        << "entry (" << i / 2 << "," << i % 2 << "): " << m(i / 2, i % 2)
        << " != " << expected[i];
  }
}

void expect_bits(double got, double expected) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(expected))
      << got << " != " << expected;
}

TEST(Matrix, ConstructionAndAccess) {
  Mat2 m{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
  m(1, 0) = -5.0;
  EXPECT_DOUBLE_EQ(m(1, 0), -5.0);
}

TEST(Matrix, IdentityAndZero) {
  expect_near(Mat2{}, Mat2{0, 0, 0, 0});  // zero-initialized
  const Mat2 a{4, 7, 2, 6};
  expect_near(product(kIdentity, a), a);
  expect_near(product(a, kIdentity), a);
}

TEST(Matrix, MultiplicationAgainstHandComputation) {
  const geom::Vec2 v = Mat2{1, 2, 3, 4} * geom::Vec2{5, 6};
  EXPECT_DOUBLE_EQ(v.x, 17.0);
  EXPECT_DOUBLE_EQ(v.y, 39.0);
  // A zero entry is skipped, so it does not turn an infinite entry of v
  // into NaN.
  const double inf = std::numeric_limits<double>::infinity();
  const geom::Vec2 w = Mat2{2, 0, 0, 3} * geom::Vec2{1, inf};
  EXPECT_DOUBLE_EQ(w.x, 2.0);
  EXPECT_EQ(w.y, inf);
}

TEST(Matrix, InverseRecoversIdentity) {
  const Mat2 a{4, 7, 2, 6};
  expect_near(product(a, inverse(a)), kIdentity, 1e-12);
  expect_near(product(inverse(a), a), kIdentity, 1e-12);
}

TEST(Matrix, InverseOfSingularThrows) {
  const Mat2 singular{1, 2, 2, 4};
  EXPECT_THROW(inverse(singular), Error);
}

TEST(Matrix, InverseWithPivoting) {
  // Leading zero forces a row swap.
  const Mat2 a{0, 1, 1, 0};
  expect_near(inverse(a), a);
}

TEST(Matrix, DeterminantValues) {
  EXPECT_NEAR(determinant(Mat2{3, 8, 4, 6}), -14.0, 1e-12);
  EXPECT_DOUBLE_EQ(determinant(Mat2{1, 2, 2, 4}), 0.0);
  EXPECT_DOUBLE_EQ(determinant(Mat2{0, 1, 0, 1}), 0.0);
  EXPECT_NEAR(determinant(kIdentity), 1.0, 1e-15);
}

TEST(Matrix, RandomizedInverseRoundTrip) {
  rng::Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    Mat2 a;
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c = 0; c < 2; ++c) {
        a(r, c) = rng.uniform(-2.0, 2.0);
      }
      a(r, r) += 5.0;  // diagonally dominant => invertible
    }
    expect_near(product(a, inverse(a)), kIdentity, 1e-12);
  }
}

// The bits below were recorded from the N x N Gauss-Jordan and elimination
// templates this type replaced (instantiated at N = 2). A3's
// multilateration runs these functions, so any change of operation order
// shows here before it moves a table.

TEST(Matrix, PinnedBitsWithPivotSwap) {
  // |a10| > |a00|: inverse and determinant swap rows.
  const Mat2 a{0.3, 1.7, -2.9, 0.45};
  expect_bits(inverse(a), {0x1.6be8c0102c7a6p-4, -0x1.57b1272bb83aap-2,
                           0x1.252628f0959b7p-1, 0x1.e536556ae5f87p-5});
  expect_bits(determinant(a), 0x1.4428f5c28f5c2p+2);
  const geom::Vec2 p = inverse(a) * geom::Vec2{0.7, -1.1};
  expect_bits(p.x, 0x1.b9beccb2ec092p-2);
  expect_bits(p.y, 0x1.57b1272bb83aap-2);

  const Mat2 spd{0.5, 1.3, 1.3, 4.1};
  expect_bits(inverse(spd), {0x1.6c71c71c71c78p+3, -0x1.ce38e38e38e42p+1,
                             -0x1.ce38e38e38e42p+1, 0x1.638e38e38e395p+0});
  expect_bits(determinant(spd), 0x1.70a3d70a3d703p-2);
}

TEST(Matrix, PinnedBitsWithZeroOffDiagonal) {
  // a10 == 0: the elimination below the first pivot is skipped.
  const Mat2 a{1.9, -0.6, 0.0, 3.3};
  expect_bits(inverse(a), {0x1.0d79435e50d79p-1, 0x1.87f63371e9f3cp-4, 0x0p+0,
                           0x1.364d9364d9365p-2});
  expect_bits(determinant(a), 0x1.9147ae147ae14p+2);
  const geom::Vec2 p = inverse(a) * geom::Vec2{0.7, -1.1};
  expect_bits(p.x, 0x1.0d79435e50d79p-2);
  expect_bits(p.y, -0x1.5555555555556p-2);
}

TEST(Matrix, PinnedBitsNearSingular) {
  const Mat2 a{4.0, 2.0, 2.0, 1.0 + 1e-10};
  expect_bits(inverse(a), {0x1.2a05f062cc558p+31, -0x1.2a05f0624c558p+32,
                           -0x1.2a05f0624c558p+32, 0x1.2a05f0624c558p+33});
  expect_bits(determinant(a), 0x1.b7cep-32);
  const geom::Vec2 p = inverse(a) * geom::Vec2{0.7, -1.1};
  expect_bits(p.x, 0x1.b02236284eaf3p+32);
  expect_bits(p.y, -0x1.b022362821e26p+33);
}

}  // namespace
}  // namespace cdpf::linalg
