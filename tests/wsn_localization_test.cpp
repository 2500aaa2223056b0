// Unit tests for anchor-based localization and believed-position support.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "random/rng.hpp"
#include "support/check.hpp"
#include "wsn/deployment.hpp"
#include "wsn/localization.hpp"
#include "wsn/network.hpp"

namespace cdpf::wsn {
namespace {

Network dense_network(std::uint64_t seed, std::size_t count = 2000) {
  rng::Rng rng(seed);
  return Network(deploy_uniform_random(count, geom::Aabb::square(200.0), rng),
                 NetworkConfig{geom::Aabb::square(200.0), 10.0, 30.0});
}

TEST(Localization, NoiselessRangingRecoversPositionsAlmostExactly) {
  Network net = dense_network(1);
  LocalizationConfig config;
  config.anchor_fraction = 0.15;
  config.range_sigma_m = 0.0;
  rng::Rng rng(2);
  const LocalizationResult result = localize(net, config, rng);
  EXPECT_EQ(result.unlocalized, 0u);
  EXPECT_LT(result.mean_error(net), 0.01);
  for (NodeId id = 0; id < net.size(); ++id) {
    EXPECT_LT(geom::distance(result.positions[id], net.true_position(id)), 0.5)
        << "node " << id;
  }
}

TEST(Localization, AnchorsAreExact) {
  Network net = dense_network(3);
  LocalizationConfig config;
  config.range_sigma_m = 2.0;
  rng::Rng rng(4);
  const LocalizationResult result = localize(net, config, rng);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (result.is_anchor[id]) {
      EXPECT_EQ(result.positions[id], net.true_position(id));
    }
  }
}

TEST(Localization, ErrorGrowsWithRangeNoise) {
  Network net = dense_network(5);
  double previous = -1.0;
  for (const double sigma : {0.0, 1.0, 4.0}) {
    LocalizationConfig config;
    config.range_sigma_m = sigma;
    rng::Rng rng(6);
    const double error = localize(net, config, rng).mean_error(net);
    EXPECT_GT(error, previous);
    previous = error;
  }
}

TEST(Localization, SparseAnchorsNeedIterativeRounds) {
  Network net = dense_network(7);
  LocalizationConfig one_round;
  one_round.anchor_fraction = 0.02;
  one_round.rounds = 1;
  LocalizationConfig many_rounds = one_round;
  many_rounds.rounds = 6;
  rng::Rng rng_a(8), rng_b(8);
  const auto first = localize(net, one_round, rng_a);
  const auto iterated = localize(net, many_rounds, rng_b);
  // More rounds localize at least as many nodes (typically strictly more).
  EXPECT_LE(iterated.unlocalized, first.unlocalized);
}

TEST(Localization, InvalidConfigRejected) {
  Network net = dense_network(9, 100);
  rng::Rng rng(10);
  LocalizationConfig bad;
  bad.anchor_fraction = 0.0;
  EXPECT_THROW(localize(net, bad, rng), Error);
  LocalizationConfig bad2;
  bad2.min_references = 2;
  EXPECT_THROW(localize(net, bad2, rng), Error);
}

TEST(BelievedPositions, DefaultIsTruePosition) {
  Network net = dense_network(11, 50);
  EXPECT_EQ(net.max_believed_displacement(), 0.0);
  for (NodeId id = 0; id < net.size(); ++id) {
    EXPECT_EQ(net.position(id), net.true_position(id));
  }
}

TEST(BelievedPositions, InstallAndClear) {
  Network net = dense_network(12, 50);
  std::vector<geom::Vec2> believed;
  for (NodeId id = 0; id < net.size(); ++id) {
    believed.push_back(net.true_position(id) + geom::Vec2{1.0, -1.0});
  }
  net.set_believed_positions(believed);
  EXPECT_DOUBLE_EQ(net.max_believed_displacement(), std::sqrt(2.0));
  EXPECT_EQ(net.position(7), net.true_position(7) + geom::Vec2(1.0, -1.0));
  // Physical queries (detection) still run on true positions.
  std::vector<NodeId> at_true;
  net.detecting_nodes(net.true_position(7), at_true);
  EXPECT_NE(std::find(at_true.begin(), at_true.end(), NodeId{7}), at_true.end());
  net.clear_believed_positions();
  EXPECT_EQ(net.max_believed_displacement(), 0.0);
  EXPECT_EQ(net.position(7), net.true_position(7));
}

TEST(BelievedPositions, SizeMismatchRejected) {
  Network net = dense_network(13, 50);
  EXPECT_THROW(net.set_believed_positions({{1.0, 1.0}}), Error);
}

}  // namespace
}  // namespace cdpf::wsn
