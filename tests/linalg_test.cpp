// Unit tests for the fixed-size linear algebra used by GMM-DPF and localization.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/matrix.hpp"
#include "random/rng.hpp"
#include "support/check.hpp"

namespace cdpf::linalg {
namespace {

template <std::size_t R, std::size_t C>
void expect_near(const Mat<R, C>& a, const Mat<R, C>& b, double tol = 1e-12) {
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      EXPECT_NEAR(a(r, c), b(r, c), tol) << "at (" << r << "," << c << ")";
    }
  }
}

TEST(Matrix, ConstructionAndAccess) {
  const Mat<2, 3> m{1, 2, 3, 4, 5, 6};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
  using Mat23 = Mat<2, 3>;
  EXPECT_EQ(Mat23::rows(), 2u);
  EXPECT_EQ(Mat23::cols(), 3u);
  EXPECT_THROW((Mat<2, 2>{1, 2, 3}), Error);
  Vec<3> v;
  v[0] = 1.0;
  v[2] = 2.0;
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 0.0);
  EXPECT_DOUBLE_EQ(v(2, 0), 2.0);
}

TEST(Matrix, IdentityAndZero) {
  const auto i = Mat<3, 3>::identity();
  expect_near(i, Mat<3, 3>{1, 0, 0, 0, 1, 0, 0, 0, 1});
  expect_near(Mat<3, 3>{}, Mat<3, 3>{0, 0, 0, 0, 0, 0, 0, 0, 0});  // zero-initialized
  expect_near(i * i, i);
}

TEST(Matrix, AdditionSubtractionScaling) {
  const Mat<2, 2> a{1, 2, 3, 4};
  const Mat<2, 2> b{5, 6, 7, 8};
  expect_near(a + b, Mat<2, 2>{6, 8, 10, 12});
  expect_near(b - a, Mat<2, 2>{4, 4, 4, 4});
  expect_near(a * 2.0, Mat<2, 2>{2, 4, 6, 8});
  expect_near(2.0 * a, a * 2.0);
  expect_near(-a, Mat<2, 2>{-1, -2, -3, -4});
}

TEST(Matrix, MultiplicationAgainstHandComputation) {
  const Mat<2, 3> a{1, 2, 3, 4, 5, 6};
  const Mat<3, 2> b{7, 8, 9, 10, 11, 12};
  expect_near(a * b, Mat<2, 2>{58, 64, 139, 154});
}

TEST(Matrix, TransposeInvolution) {
  const Mat<2, 3> a{1, 2, 3, 4, 5, 6};
  expect_near(a.transposed().transposed(), a);
  EXPECT_DOUBLE_EQ(a.transposed()(2, 1), 6.0);
}

TEST(Matrix, InverseRecoversIdentity) {
  const Mat<3, 3> a{4, 7, 2, 3, 6, 1, 2, 5, 3};
  expect_near(a * inverse(a), Mat<3, 3>::identity(), 1e-10);
  expect_near(inverse(a) * a, Mat<3, 3>::identity(), 1e-10);
}

TEST(Matrix, InverseOfSingularThrows) {
  const Mat<2, 2> singular{1, 2, 2, 4};
  EXPECT_THROW(inverse(singular), Error);
}

TEST(Matrix, InverseWithPivoting) {
  // Leading zero forces a row swap.
  const Mat<2, 2> a{0, 1, 1, 0};
  expect_near(inverse(a), a);
}

TEST(Matrix, DeterminantValues) {
  EXPECT_NEAR(determinant(Mat<2, 2>{3, 8, 4, 6}), -14.0, 1e-12);
  EXPECT_NEAR(determinant(Mat<3, 3>{6, 1, 1, 4, -2, 5, 2, 8, 7}), -306.0, 1e-10);
  EXPECT_DOUBLE_EQ(determinant(Mat<2, 2>{1, 2, 2, 4}), 0.0);
  EXPECT_NEAR(determinant(Mat<4, 4>::identity()), 1.0, 1e-15);
}

TEST(Matrix, CholeskyReconstructs) {
  const Mat<3, 3> spd{4, 12, -16, 12, 37, -43, -16, -43, 98};  // classic example
  const Mat<3, 3> l = cholesky(spd);
  expect_near(l * l.transposed(), spd, 1e-9);
  // Known factor: diag(2, 6.08..., ...) first column 2, 6, -8.
  EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(l(1, 0), 6.0, 1e-12);
  EXPECT_NEAR(l(2, 0), -8.0, 1e-12);
}

TEST(Matrix, CholeskyRejectsIndefinite) {
  const Mat<2, 2> indefinite{1, 2, 2, 1};
  EXPECT_THROW(cholesky(indefinite), Error);
}

TEST(Matrix, SymmetrizedAveragesOffDiagonal) {
  const Mat<2, 2> a{1, 2, 4, 3};
  expect_near(symmetrized(a), Mat<2, 2>{1, 3, 3, 3});
}

TEST(Matrix, RandomizedInverseRoundTrip) {
  rng::Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    Mat<4, 4> a;
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        a(r, c) = rng.uniform(-2.0, 2.0);
      }
      a(r, r) += 5.0;  // diagonally dominant => invertible
    }
    expect_near(a * inverse(a), Mat<4, 4>::identity(), 1e-9);
  }
}

}  // namespace
}  // namespace cdpf::linalg
