// Unit + randomized tests for geometry: vectors, angles, shapes and the
// uniform-grid spatial index (checked against brute force on uniform and
// corridor deployments).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "geom/angles.hpp"
#include "geom/grid_index.hpp"
#include "geom/shapes.hpp"
#include "geom/vec2.hpp"
#include "random/rng.hpp"
#include "support/check.hpp"

namespace cdpf::geom {
namespace {

/// Ids of the points within `radius` of `center`, sorted, as visit_disk (the
/// form every network query runs) reports them.
std::vector<std::size_t> ids_in_disk(const GridIndex& index, Vec2 center, double radius) {
  std::vector<std::size_t> ids;
  index.visit_disk(center, radius,
                   [&ids](std::size_t id, std::size_t) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(Vec2, Arithmetic) {
  const Vec2 a{1.0, 2.0}, b{3.0, -4.0};
  EXPECT_EQ(a + b, Vec2(4.0, -2.0));
  EXPECT_EQ(a - b, Vec2(-2.0, 6.0));
  EXPECT_EQ(a * 2.0, Vec2(2.0, 4.0));
  EXPECT_EQ(b / 2.0, Vec2(1.5, -2.0));
}

TEST(Vec2, NormAndNormalize) {
  const Vec2 v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.norm_squared(), 25.0);
  const Vec2 unit = v.normalized();
  EXPECT_NEAR(unit.norm(), 1.0, 1e-15);
  EXPECT_EQ(Vec2{}.normalized(), Vec2{});
}

TEST(Vec2, AngleRoundTrip) {
  for (const double a : {-3.0, -1.5, 0.0, 0.7, 2.9}) {
    const Vec2 v = Vec2::from_angle(a);
    EXPECT_NEAR(wrap_angle(v.angle() - a), 0.0, 1e-12);
    EXPECT_NEAR(v.norm(), 1.0, 1e-15);
  }
}

TEST(Angles, WrapIntoHalfOpenInterval) {
  EXPECT_NEAR(wrap_angle(0.0), 0.0, 1e-15);
  EXPECT_NEAR(wrap_angle(kTwoPi + 0.25), 0.25, 1e-12);
  EXPECT_NEAR(wrap_angle(-kTwoPi - 0.25), -0.25, 1e-12);
  EXPECT_NEAR(wrap_angle(3.0 * kPi), kPi, 1e-12);
  // The result is always in (-pi, pi].
  for (double a = -20.0; a <= 20.0; a += 0.37) {
    const double w = wrap_angle(a);
    EXPECT_GT(w, -kPi - 1e-12);
    EXPECT_LE(w, kPi + 1e-12);
  }
}

/// The pre-shortcut definition of wrap_angle: the IEEE remainder by 2pi,
/// with the -pi edge moved to +pi.
double wrap_angle_by_remainder(double radians) {
  double a = std::remainder(radians, kTwoPi);
  if (a <= -kPi) {
    a += kTwoPi;
  }
  return a;
}

void expect_bitwise_wrap(double x) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(wrap_angle(x)),
            std::bit_cast<std::uint64_t>(wrap_angle_by_remainder(x)))
      << "x = " << std::hexfloat << x;
}

TEST(Angles, WrapMatchesRemainderBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // The branch edges of the shortcut (|x| = pi, 3pi), the tie at 2pi and
  // the signed zeros, each with both floating-point neighbours.
  for (const double edge : {0.0, kPi, kTwoPi, 3.0 * kPi}) {
    for (const double x : {edge, -edge}) {
      expect_bitwise_wrap(x);
      expect_bitwise_wrap(std::nextafter(x, kInf));
      expect_bitwise_wrap(std::nextafter(x, -kInf));
    }
  }
  expect_bitwise_wrap(kInf);
  expect_bitwise_wrap(-kInf);
  EXPECT_TRUE(std::isnan(wrap_angle(std::numeric_limits<double>::quiet_NaN())));
  rng::Rng rng(20110516);
  for (int i = 0; i < 1'000'000; ++i) {
    expect_bitwise_wrap(rng.uniform(-8.0 * kPi, 8.0 * kPi));
  }
}

TEST(Aabb, ContainsAndClamp) {
  const Aabb box = Aabb::square(10.0);
  EXPECT_TRUE(box.contains({0.0, 0.0}));
  EXPECT_TRUE(box.contains({10.0, 10.0}));
  EXPECT_FALSE(box.contains({10.1, 5.0}));
  EXPECT_EQ(box.clamp({-1.0, 12.0}), Vec2(0.0, 10.0));
  EXPECT_EQ(box.center(), Vec2(5.0, 5.0));
  EXPECT_DOUBLE_EQ(box.area(), 100.0);
}

class GridIndexRandomized : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(GridIndexRandomized, MatchesBruteForce) {
  const auto [count, radius] = GetParam();
  rng::Rng rng(static_cast<std::uint64_t>(count) * 1000 + 7);
  const Aabb bounds = Aabb::square(100.0);
  // Each size runs on a uniform deployment and on a corridor (every point
  // within a few meters of y = 50), which piles the points into one row of
  // grid cells.
  for (const bool corridor : {false, true}) {
    std::vector<Vec2> points;
    points.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      const double x = rng.uniform(0.0, 100.0);
      const double y = corridor ? std::clamp(50.0 + rng.gaussian(0.0, 2.0), 0.0, 100.0)
                                : rng.uniform(0.0, 100.0);
      points.push_back({x, y});
    }
    const GridIndex index(points, bounds, 7.0);
    for (int q = 0; q < 25; ++q) {
      const double cx = rng.uniform(0.0, 100.0);
      const double cy = corridor ? rng.uniform(40.0, 60.0) : rng.uniform(0.0, 100.0);
      const Vec2 center{cx, cy};
      const std::vector<std::size_t> got = ids_in_disk(index, center, radius);
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (distance(points[i], center) <= radius) {
          expected.push_back(i);
        }
      }
      ASSERT_EQ(got, expected) << "count=" << count << " radius=" << radius
                               << " corridor=" << corridor;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GridIndexRandomized,
                         ::testing::Combine(::testing::Values(1, 10, 200, 2000),
                                            ::testing::Values(0.0, 3.0, 12.0, 150.0)));

TEST(GridIndex, RejectsPointOutsideBounds) {
  const std::vector<Vec2> pts{{5.0, 5.0}, {11.0, 5.0}};
  EXPECT_THROW(GridIndex(pts, Aabb::square(10.0), 1.0), Error);
}

TEST(GridIndex, RejectsNonPositiveCellSize) {
  const std::vector<Vec2> pts{{5.0, 5.0}};
  EXPECT_THROW(GridIndex(pts, Aabb::square(10.0), 0.0), Error);
}

TEST(GridIndex, VisitorSeesEveryMatch) {
  const std::vector<Vec2> pts{{1.0, 1.0}, {2.0, 2.0}, {9.0, 9.0}};
  const GridIndex index(pts, Aabb::square(10.0), 2.5);
  int visits = 0;
  index.visit_disk({1.5, 1.5}, 1.0, [&](std::size_t, std::size_t) { ++visits; });
  EXPECT_EQ(visits, 2);
}

TEST(GridIndex, QueryOutsideBoundsStillWorks) {
  const std::vector<Vec2> pts{{0.5, 0.5}};
  const GridIndex index(pts, Aabb::square(10.0), 2.0);
  EXPECT_EQ(ids_in_disk(index, {-5.0, -5.0}, 10.0).size(), 1u);
  EXPECT_TRUE(ids_in_disk(index, {50.0, 50.0}, 5.0).empty());
}

}  // namespace
}  // namespace cdpf::geom
