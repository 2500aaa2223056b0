// Executable proofs of the paper's neighborhood-estimation results:
// Theorem 1 (normalized contributions) and Theorem 2 (cross-node
// consistency), plus the Equation-4 inverse-distance property.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/neighborhood_estimation.hpp"
#include "random/rng.hpp"

namespace cdpf::core {
namespace {

std::vector<double> contributions_of(const std::vector<geom::Vec2>& positions,
                                     geom::Vec2 predicted) {
  std::vector<double> out;
  estimated_contributions(positions, predicted, out);
  return out;
}

std::vector<geom::Vec2> random_area_nodes(std::size_t count, geom::Vec2 center,
                                          double radius, rng::Rng& rng) {
  std::vector<geom::Vec2> nodes;
  while (nodes.size() < count) {
    const geom::Vec2 p{rng.uniform(center.x - radius, center.x + radius),
                       rng.uniform(center.y - radius, center.y + radius)};
    if (geom::distance(p, center) <= radius) {
      nodes.push_back(p);
    }
  }
  return nodes;
}

class Theorems : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(Theorems, Theorem1ContributionsAreNormalized) {
  const auto [count, seed] = GetParam();
  rng::Rng rng(seed);
  const geom::Vec2 predicted{100.0, 100.0};
  const auto nodes = random_area_nodes(static_cast<std::size_t>(count), predicted,
                                       10.0, rng);
  const auto contributions = contributions_of(nodes, predicted);
  ASSERT_EQ(contributions.size(), nodes.size());
  double sum = 0.0;
  for (const double c : contributions) {
    EXPECT_GT(c, 0.0);
    sum += c;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST_P(Theorems, Theorem2EveryNodeComputesIdenticalContributions) {
  // A node's own contribution (computed from its own perspective via
  // own_contribution) equals the value any other node computes for it via
  // the full estimated_contributions — given consistent shared positions.
  const auto [count, seed] = GetParam();
  rng::Rng rng(seed + 1000);
  const geom::Vec2 predicted{80.0, 120.0};
  const auto nodes = random_area_nodes(static_cast<std::size_t>(count), predicted,
                                       10.0, rng);
  const auto global = contributions_of(nodes, predicted);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::vector<geom::Vec2> others;
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      if (j != i) {
        others.push_back(nodes[j]);
      }
    }
    const double own = own_contribution(nodes[i], others, predicted);
    EXPECT_NEAR(own, global[i], 1e-12) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Theorems,
                         ::testing::Combine(::testing::Values(1, 2, 5, 20, 100),
                                            ::testing::Values(1u, 7u, 42u)));

TEST(Contributions, Equation4InverseDistanceRatios) {
  // c_0 * d_0 = c_1 * d_1 (Equation 4): the weighted distance is constant.
  const geom::Vec2 predicted{0.0, 0.0};
  const std::vector<geom::Vec2> nodes{{2.0, 0.0}, {0.0, 5.0}, {-8.0, 0.0}};
  const auto c = contributions_of(nodes, predicted);
  EXPECT_NEAR(c[0] * 2.0, c[1] * 5.0, 1e-12);
  EXPECT_NEAR(c[1] * 5.0, c[2] * 8.0, 1e-12);
}

TEST(Contributions, CloserNodesContributeMore) {
  const geom::Vec2 predicted{0.0, 0.0};
  const std::vector<geom::Vec2> nodes{{1.0, 0.0}, {4.0, 0.0}, {9.0, 0.0}};
  const auto c = contributions_of(nodes, predicted);
  EXPECT_GT(c[0], c[1]);
  EXPECT_GT(c[1], c[2]);
  EXPECT_NEAR(c[0] / c[1], 4.0, 1e-12);  // inverse proportionality
}

TEST(Contributions, SingleNodeGetsEverything) {
  const auto c = contributions_of({{3.0, 4.0}}, {0.0, 0.0});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
}

TEST(Contributions, EmptyInputYieldsEmptyOutput) {
  std::vector<double> out{0.5, 0.5};  // stale contents are discarded
  estimated_contributions(std::vector<geom::Vec2>{}, {0.0, 0.0}, out);
  EXPECT_TRUE(out.empty());
}

TEST(Contributions, MinDistanceClampPreventsSingularity) {
  // A node exactly at the predicted position would otherwise absorb all
  // contribution (1/0).
  const geom::Vec2 predicted{10.0, 10.0};
  const std::vector<geom::Vec2> nodes{{10.0, 10.0}, {10.0, 10.1}, {15.0, 10.0}};
  const auto c = contributions_of(nodes, predicted);
  // With the kMinContributionDistanceM = 0.1 m clamp, the first two nodes
  // are equivalent.
  EXPECT_NEAR(c[0], c[1], 1e-12);
  EXPECT_LT(c[0], 1.0);
  EXPECT_TRUE(std::isfinite(c[0]));
}

TEST(Contributions, OwnContributionWithNoNeighbors) {
  EXPECT_DOUBLE_EQ(own_contribution({5.0, 5.0}, std::vector<geom::Vec2>{}, {0.0, 0.0}),
                   1.0);
}

}  // namespace
}  // namespace cdpf::core
