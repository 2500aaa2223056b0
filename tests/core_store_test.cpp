// Unit tests for the particles-on-nodes stores (combine/divide disciplines).
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

TEST(MultiParticleStore, KeepsDistinctParticlesPerHost) {
  MultiParticleStore store;
  store.add(5, {{{1.0, 1.0}, {1.0, 0.0}}, 0.5});
  store.add(5, {{{2.0, 2.0}, {0.0, 1.0}}, 0.25});
  store.add(7, {{{3.0, 3.0}, {1.0, 1.0}}, 0.25});
  EXPECT_EQ(store.host_count(), 2u);
  EXPECT_EQ(store.particle_count(), 3u);
  ASSERT_NE(store.find(5), nullptr);
  EXPECT_EQ(store.find(5)->size(), 2u);
  EXPECT_EQ(store.find(9), nullptr);
}

TEST(MultiParticleStore, NormalizeAndEstimate) {
  MultiParticleStore store;
  store.add(0, {{{0.0, 0.0}, {}}, 1.0});
  store.add(1, {{{4.0, 0.0}, {}}, 3.0});
  store.normalize(4.0);
  EXPECT_NEAR(store.total_weight(), 1.0, 1e-15);
  EXPECT_DOUBLE_EQ(store.estimate().position.x, 3.0);
}

TEST(MultiParticleStore, PruneDropsWholeLightHosts) {
  MultiParticleStore store;
  store.add(0, {{{0.0, 0.0}, {}}, 0.4});
  store.add(0, {{{0.0, 0.0}, {}}, 0.4});
  store.add(1, {{{0.0, 0.0}, {}}, 0.05});
  EXPECT_EQ(store.prune_hosts_below(0.1), 1u);
  EXPECT_TRUE(store.contains(0));
  EXPECT_FALSE(store.contains(1));
}

TEST(MultiParticleStore, SortedConversionIsDeterministic) {
  MultiParticleStore store;
  store.add(9, {{{9.0, 0.0}, {}}, 1.0});
  store.add(1, {{{1.0, 0.0}, {}}, 1.0});
  ASSERT_EQ(store.sorted_hosts(), (std::vector<wsn::NodeId>{1, 9}));
  ASSERT_EQ(store.find(1)->size(), 1u);
  EXPECT_DOUBLE_EQ(store.find(1)->front().state.position.x, 1.0);
  EXPECT_DOUBLE_EQ(store.find(9)->front().state.position.x, 9.0);
}

TEST(MultiParticleStore, EstimateRequiresMass) {
  MultiParticleStore store;
  store.add(0, {{{0.0, 0.0}, {}}, 0.0});
  EXPECT_THROW(store.estimate(), Error);
}

}  // namespace
}  // namespace cdpf::core
