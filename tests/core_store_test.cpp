// Unit tests for CDPF's particles-on-nodes store (the combine discipline).
#include <gtest/gtest.h>

#include "core/node_particle.hpp"
#include "support/check.hpp"
#include "wsn/network.hpp"

namespace cdpf::core {
namespace {

wsn::Network small_network() {
  return wsn::Network({{10.0, 10.0}, {20.0, 10.0}, {30.0, 10.0}, {10.0, 30.0}},
                      wsn::NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
}

TEST(ParticleStore, CombineSumsWeightsAndAveragesVelocity) {
  ParticleStore store;
  store.add(1, {2.0, 0.0}, 1.0);
  store.add(1, {0.0, 2.0}, 3.0);  // same host: combine
  EXPECT_EQ(store.size(), 1u);
  const NodeParticle* p = store.find(1);
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->weight, 4.0);
  // Weight-averaged velocity: (2*1 + 0*3)/4, (0*1 + 2*3)/4.
  EXPECT_DOUBLE_EQ(p->velocity.x, 0.5);
  EXPECT_DOUBLE_EQ(p->velocity.y, 1.5);
}

TEST(ParticleStore, TotalWeightAndNormalize) {
  ParticleStore store;
  store.add(0, {1.0, 0.0}, 2.0);
  store.add(1, {1.0, 0.0}, 6.0);
  EXPECT_DOUBLE_EQ(store.total_weight(), 8.0);
  EXPECT_EQ(store.normalize_and_prune(8.0, 0.0), 0u);  // threshold 0 keeps all
  EXPECT_DOUBLE_EQ(store.total_weight(), 1.0);
  EXPECT_DOUBLE_EQ(store.find(1)->weight, 0.75);
  EXPECT_THROW(store.normalize_and_prune(0.0, 0.0), Error);
}

TEST(ParticleStore, ScaleAndRaiseWeight) {
  ParticleStore store;
  store.add(2, {0.0, 0.0}, 4.0);
  store.scale_weight(2, 0.25);
  EXPECT_DOUBLE_EQ(store.find(2)->weight, 1.0);
  store.raise_weight_to(2, 3.0);
  EXPECT_DOUBLE_EQ(store.find(2)->weight, 3.0);
  store.raise_weight_to(2, 1.0);  // no-op: already higher
  EXPECT_DOUBLE_EQ(store.find(2)->weight, 3.0);
  EXPECT_THROW(store.scale_weight(9, 1.0), Error);
  EXPECT_THROW(store.scale_weight(2, -1.0), Error);
}

TEST(ParticleStore, PruneRemovesLightParticles) {
  ParticleStore store;
  store.add(0, {}, 0.5);
  store.add(1, {}, 0.01);
  store.add(2, {}, 0.49);
  EXPECT_EQ(store.prune_below(0.1), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.contains(1));
}

TEST(ParticleStore, EstimateUsesHostPositions) {
  const wsn::Network net = small_network();
  ParticleStore store;
  store.add(0, {1.0, 0.0}, 1.0);  // at (10,10)
  store.add(2, {3.0, 0.0}, 3.0);  // at (30,10)
  const tracking::TargetState est = store.estimate(net);
  EXPECT_DOUBLE_EQ(est.position.x, (10.0 + 3.0 * 30.0) / 4.0);
  EXPECT_DOUBLE_EQ(est.position.y, 10.0);
  EXPECT_DOUBLE_EQ(est.velocity.x, (1.0 + 3.0 * 3.0) / 4.0);
}

TEST(ParticleStore, SortedHostsAndConversion) {
  const wsn::Network net = small_network();
  ParticleStore store;
  store.add(3, {}, 1.0);
  store.add(0, {}, 2.0);
  store.add(2, {}, 3.0);
  EXPECT_EQ(store.sorted_hosts(), (std::vector<wsn::NodeId>{0, 2, 3}));
  // Dense storage keeps creation order; find() resolves a host to its
  // particle, whose position is the host node's.
  ASSERT_EQ(store.particles().size(), 3u);
  EXPECT_EQ(store.particles()[0].host, 3u);
  const wsn::NodeId first = store.sorted_hosts().front();
  EXPECT_EQ(net.position(first), geom::Vec2(10.0, 10.0));
  EXPECT_DOUBLE_EQ(store.find(first)->weight, 2.0);
  EXPECT_DOUBLE_EQ(store.find(store.sorted_hosts().back())->weight, 1.0);
}

TEST(ParticleStore, ZeroWeightCombinationKeepsVelocityFinite) {
  ParticleStore store;
  store.add(0, {1.0, 1.0}, 0.0);
  store.add(0, {2.0, 2.0}, 0.0);
  EXPECT_DOUBLE_EQ(store.find(0)->weight, 0.0);
  EXPECT_TRUE(std::isfinite(store.find(0)->velocity.x));
}

}  // namespace
}  // namespace cdpf::core
