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

TEST(ParticleStore, HostBeyondReserveGrowsTheIndex) {
  ParticleStore store;
  store.reserve(4);
  store.add(2, {1.0, 0.0}, 1.0);
  store.add(1000, {0.0, 1.0}, 2.0);  // beyond the reserved ids
  store.add(1000, {0.0, 1.0}, 1.0);  // combines through the grown index
  EXPECT_EQ(store.size(), 2u);
  ASSERT_TRUE(store.contains(1000));
  EXPECT_DOUBLE_EQ(store.find(1000)->weight, 3.0);
  EXPECT_DOUBLE_EQ(store.find(2)->weight, 1.0);
  EXPECT_FALSE(store.contains(999));
  EXPECT_FALSE(store.contains(5000));  // beyond the index: absent, no throw
  EXPECT_THROW(store.add(wsn::kInvalidNodeId, {}, 1.0), Error);
}

TEST(ParticleStore, DroppedHostsAreAbsent) {
  ParticleStore store;
  store.reserve(8);
  store.add(5, {}, 0.01);
  store.add(1, {}, 1.0);
  store.add(7, {}, 0.02);
  store.add(3, {}, 2.0);
  EXPECT_EQ(store.prune_below(0.1), 2u);
  EXPECT_FALSE(store.contains(5));
  EXPECT_EQ(store.find(7), nullptr);
  // Survivors moved down the dense array and still resolve.
  EXPECT_DOUBLE_EQ(store.find(1)->weight, 1.0);
  EXPECT_DOUBLE_EQ(store.find(3)->weight, 2.0);

  EXPECT_EQ(store.normalize_and_prune(3.0, 0.5), 1u);  // 1/3 dropped, 2/3 kept
  EXPECT_FALSE(store.contains(1));
  ASSERT_TRUE(store.contains(3));
  EXPECT_DOUBLE_EQ(store.find(3)->weight, 2.0 / 3.0);
  EXPECT_EQ(store.particles().front().host, 3u);

  store.clear();
  EXPECT_TRUE(store.empty());
  for (const wsn::NodeId host : {1u, 3u, 5u, 7u}) {
    EXPECT_FALSE(store.contains(host)) << "host " << host;
  }
}

TEST(ParticleStore, ReaddedHostStartsAFreshParticle) {
  ParticleStore store;
  store.add(4, {5.0, 5.0}, 0.01);
  store.add(6, {1.0, 0.0}, 1.0);
  ASSERT_EQ(store.prune_below(0.1), 1u);
  store.add(4, {0.0, 2.0}, 0.5);  // must not combine into the pruned particle
  ASSERT_EQ(store.size(), 2u);
  const NodeParticle* p = store.find(4);
  ASSERT_NE(p, nullptr);
  EXPECT_DOUBLE_EQ(p->weight, 0.5);
  EXPECT_DOUBLE_EQ(p->velocity.x, 0.0);
  EXPECT_DOUBLE_EQ(p->velocity.y, 2.0);
  EXPECT_EQ(store.particles().back().host, 4u);  // appended in creation order

  store.clear();
  store.add(6, {0.0, -1.0}, 0.25);  // likewise after clear()
  EXPECT_EQ(store.size(), 1u);
  EXPECT_DOUBLE_EQ(store.find(6)->weight, 0.25);
  EXPECT_DOUBLE_EQ(store.find(6)->velocity.y, -1.0);
}

TEST(ParticleStore, SwapExchangesHostIndices) {
  ParticleStore a;
  ParticleStore b;
  a.reserve(16);
  a.add(1, {}, 1.0);
  a.add(2, {}, 2.0);
  b.add(9, {}, 9.0);
  a.swap(b);
  EXPECT_EQ(a.size(), 1u);
  ASSERT_TRUE(a.contains(9));
  EXPECT_DOUBLE_EQ(a.find(9)->weight, 9.0);
  EXPECT_FALSE(a.contains(1));
  EXPECT_FALSE(a.contains(2));
  EXPECT_EQ(a.sorted_hosts(), (std::vector<wsn::NodeId>{9}));
  EXPECT_EQ(b.size(), 2u);
  ASSERT_TRUE(b.contains(2));
  EXPECT_DOUBLE_EQ(b.find(2)->weight, 2.0);
  EXPECT_FALSE(b.contains(9));
  EXPECT_EQ(b.sorted_hosts(), (std::vector<wsn::NodeId>{1, 2}));
  // Each side keeps combining into its own particles after the swap.
  a.add(9, {}, 1.0);
  b.add(1, {}, 1.0);
  EXPECT_DOUBLE_EQ(a.find(9)->weight, 10.0);
  EXPECT_DOUBLE_EQ(b.find(1)->weight, 2.0);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
}

}  // namespace
}  // namespace cdpf::core
