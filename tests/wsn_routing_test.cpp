// Unit tests for greedy geographic routing, including the paper's "within
// four hops at the most" remark for its evaluation geometry.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "random/rng.hpp"
#include "wsn/deployment.hpp"
#include "wsn/localization.hpp"
#include "wsn/network.hpp"
#include "wsn/radio.hpp"
#include "wsn/routing.hpp"

namespace cdpf::wsn {
namespace {

/// The greedy route from `from` to `to` as a value, or nullopt on a void.
std::optional<std::vector<NodeId>> path_of(const GreedyGeographicRouter& router,
                                           NodeId from, NodeId to) {
  std::vector<NodeId> path;
  if (!router.route_into(from, to, path)) {
    return std::nullopt;
  }
  return path;
}

TEST(Routing, StraightLineTopologyHopCount) {
  // Nodes every 20 m on a line; r_c = 30 m => greedy takes 20 m hops.
  std::vector<geom::Vec2> positions;
  for (int i = 0; i <= 5; ++i) {
    positions.push_back({static_cast<double>(20 * i), 50.0});
  }
  const Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  const GreedyGeographicRouter router(net);
  const auto path = path_of(router, 0, 5);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->front(), 0u);
  EXPECT_EQ(path->back(), 5u);
  // Only adjacent nodes (20 m) are within r_c = 30 m, so greedy advances
  // one node per hop: five hops for 0 -> 5.
  EXPECT_EQ(path->size() - 1, 5u);
}

TEST(Routing, SelfRouteIsZeroHops) {
  const std::vector<geom::Vec2> positions{{10.0, 10.0}, {20.0, 10.0}};
  const Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  const GreedyGeographicRouter router(net);
  EXPECT_EQ(path_of(router, 0, 0), (std::vector<NodeId>{0}));
}

TEST(Routing, GreedyVoidReturnsNullopt) {
  // A gap of 40 m > r_c: no forwarding possible.
  const std::vector<geom::Vec2> positions{{0.0, 50.0}, {20.0, 50.0}, {60.0, 50.0}};
  const Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  const GreedyGeographicRouter router(net);
  EXPECT_FALSE(path_of(router, 0, 2).has_value());
}

TEST(Routing, SendChargesOneUnicastPerHop) {
  std::vector<geom::Vec2> positions;
  for (int i = 0; i <= 3; ++i) {
    positions.push_back({static_cast<double>(25 * i), 50.0});
  }
  Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  Radio radio(net, PayloadSizes{});
  const GreedyGeographicRouter router(net);
  const auto hops = router.send(radio, 0, 3, MessageKind::kMeasurement, 4);
  ASSERT_TRUE(hops.has_value());
  EXPECT_EQ(radio.stats().messages(MessageKind::kMeasurement), *hops);
  EXPECT_EQ(radio.stats().bytes(MessageKind::kMeasurement), *hops * 4);
}

TEST(Routing, FailedRouteChargesNothing) {
  const std::vector<geom::Vec2> positions{{0.0, 50.0}, {90.0, 50.0}};
  Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  Radio radio(net, PayloadSizes{});
  const GreedyGeographicRouter router(net);
  EXPECT_FALSE(router.send(radio, 0, 1, MessageKind::kMeasurement, 4).has_value());
  EXPECT_EQ(radio.stats().total_messages(), 0u);
}

TEST(Routing, RoutesAvoidDeadRelays) {
  // Two parallel 2-hop paths; kill the shorter relay.
  const std::vector<geom::Vec2> positions{
      {0.0, 50.0}, {28.0, 50.0}, {25.0, 65.0}, {50.0, 50.0}};
  Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  const GreedyGeographicRouter router(net);
  ASSERT_TRUE(path_of(router, 0, 3).has_value());
  net.set_alive(1, false);
  const auto path = path_of(router, 0, 3);
  ASSERT_TRUE(path.has_value());
  for (const NodeId id : *path) {
    EXPECT_NE(id, 1u);
  }
}

TEST(Routing, PaperGeometryFourHopsToSink) {
  // Paper §VI-B: "any node can propagate the particle data to the sink node
  // in the center of the network within four hops at the most". Verify on
  // the paper's own geometry (200x200 m, r_c = 30 m, density >= 5/100 m^2).
  rng::Rng rng(7);
  const auto positions = deploy_uniform_random(2000, geom::Aabb::square(200.0), rng);
  const Network net(positions, NetworkConfig{geom::Aabb::square(200.0), 10.0, 30.0});
  const GreedyGeographicRouter router(net);
  const NodeId sink = net.sink();
  std::size_t max_hops = 0;
  std::size_t voids = 0;
  std::vector<NodeId> path;
  for (NodeId id = 0; id < net.size(); id += 37) {  // sampled sources
    if (!router.route_into(id, sink, path)) {
      ++voids;
      continue;
    }
    max_hops = std::max(max_hops, path.size() - 1);
  }
  EXPECT_EQ(voids, 0u);
  // Greedy hops cover >= ~2/3 of r_c at this density: diameter/2 ~ 141 m,
  // so <= 6-7 hops; the paper's ideal-forwarding bound is 4-5.
  EXPECT_LE(max_hops, 7u);
  EXPECT_GE(max_hops, 4u);
}

TEST(Routing, BelievedPositionsOnlyRouteOverRadioLinks) {
  // Links follow true positions; greedy ranks hops by believed ones. Node 1
  // physically sits 35 m from node 0, beyond r_c, but believes it sits 22 m
  // from node 0's believed position and is then the neighbour closest to the
  // destination: the radio refuses that link, so greedy must not pick it.
  const std::vector<geom::Vec2> positions{
      {0.0, 50.0}, {35.0, 50.0}, {70.0, 50.0}, {20.0, 60.0}, {45.0, 55.0}};
  Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  std::vector<geom::Vec2> believed = positions;
  believed[0] = {6.0, 50.0};
  believed[1] = {28.0, 50.0};
  net.set_believed_positions(believed);
  Radio radio(net, PayloadSizes{});
  EXPECT_FALSE(radio.in_range(0, 1));
  const GreedyGeographicRouter router(net);
  const auto path = path_of(router, 0, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, (std::vector<NodeId>{0, 3, 4, 2}));
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    EXPECT_TRUE(radio.in_range((*path)[i], (*path)[i + 1]));
  }
  EXPECT_EQ(router.send(radio, 0, 2, MessageKind::kMeasurement, 4), 3u);
  EXPECT_EQ(radio.stats().messages(MessageKind::kMeasurement), 3u);
}

// -- Oracle router ---------------------------------------------------------
// The router as it was before Network::nearest_comm_neighbour: a full scan
// of the radio disk at every hop, ranked by believed distance, no memo.

std::optional<std::vector<NodeId>> scanned_route(const Network& net, NodeId from,
                                                 NodeId to) {
  const geom::Vec2 destination = net.position(to);
  std::vector<NodeId> path{from};
  std::vector<NodeId> neighbors;
  NodeId current = from;
  while (current != to && path.size() <= net.size() + 1) {
    net.active_nodes_within(net.true_position(current), net.config().comm_radius,
                            neighbors);
    NodeId best = kInvalidNodeId;
    double best_dist = geom::distance(net.position(current), destination);
    for (const NodeId n : neighbors) {
      if (n == current) {
        continue;
      }
      const double d = geom::distance(net.position(n), destination);
      if (d < best_dist) {
        best_dist = d;
        best = n;
      }
    }
    if (best == kInvalidNodeId) {
      return std::nullopt;
    }
    path.push_back(best);
    current = best;
  }
  if (current != to) {
    return std::nullopt;
  }
  return path;
}

/// Routes every active node of `net` to the sink with a fresh router and
/// with the oracle; returns the number of voids.
std::size_t expect_every_route_matches_scan(const Network& net) {
  const GreedyGeographicRouter router(net);
  std::size_t routes = 0;
  std::size_t voids = 0;
  std::size_t mismatches = 0;
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!net.is_active(id)) {
      continue;
    }
    const auto expected = scanned_route(net, id, net.sink());
    ++routes;
    voids += expected.has_value() ? 0u : 1u;
    if (path_of(router, id, net.sink()) != expected) {
      ADD_FAILURE_AT(__FILE__, __LINE__) << "route from node " << id << " differs";
      if (++mismatches == 5) {
        break;
      }
    }
  }
  EXPECT_GT(routes, 0u);
  return voids;
}

class RoutingOracle : public ::testing::Test {
 protected:
  static Network density_20_field() {
    rng::Rng rng(23);
    const geom::Aabb field = geom::Aabb::square(200.0);
    return Network(deploy_uniform_random(node_count_for_density(20.0, field), field, rng),
                   NetworkConfig{field, 10.0, 30.0});
  }

  Network net_ = density_20_field();
};

TEST_F(RoutingOracle, EveryRouteMatchesScanAllActive) {
  EXPECT_EQ(expect_every_route_matches_scan(net_), 0u);
}

TEST_F(RoutingOracle, EveryRouteMatchesScanUnderDutyCycle) {
  // A random half of the nodes asleep, the sink awake.
  rng::Rng rng(24);
  for (NodeId id = 0; id < net_.size(); ++id) {
    if (id != net_.sink() && rng.bernoulli(0.5)) {
      net_.set_power(id, PowerState::kAsleep);
    }
  }
  expect_every_route_matches_scan(net_);
}

TEST_F(RoutingOracle, EveryRouteMatchesScanThroughVoids) {
  // Only ~1% of the nodes awake (about five radio neighbours each): greedy
  // forwarding now hits voids, which must be the oracle's voids.
  rng::Rng rng(26);
  for (NodeId id = 0; id < net_.size(); ++id) {
    if (id != net_.sink() && rng.bernoulli(0.99)) {
      net_.set_power(id, PowerState::kAsleep);
    }
  }
  EXPECT_GT(expect_every_route_matches_scan(net_), 0u);
}

TEST_F(RoutingOracle, EveryRouteMatchesScanUnderLocalizedPositions) {
  rng::Rng rng(25);
  net_.set_believed_positions(localize(net_, LocalizationConfig{}, rng).positions);
  expect_every_route_matches_scan(net_);
}

// -- Next-hop memo ---------------------------------------------------------
// A long-lived router memoizes next hops per (destination, activity epoch).
// After any change a route can observe, it must agree with a router built
// from scratch — route for route, voids included.

/// Every `stride`-th active node's route to `to`, or nullopt for a void.
std::vector<std::optional<std::vector<NodeId>>> routes_to(
    const GreedyGeographicRouter& router, const Network& net, NodeId to,
    NodeId stride = 7) {
  std::vector<std::optional<std::vector<NodeId>>> out;
  for (NodeId id = 0; id < net.size(); id += stride) {
    if (net.is_active(id)) {
      out.push_back(path_of(router, id, to));
    }
  }
  return out;
}

void expect_matches_fresh_router(const GreedyGeographicRouter& long_lived,
                                 const Network& net, NodeId to) {
  const GreedyGeographicRouter fresh(net);
  EXPECT_EQ(routes_to(long_lived, net, to), routes_to(fresh, net, to));
}

class RoutingMemo : public ::testing::Test {
 protected:
  RoutingMemo()
      : net_(deploy(), NetworkConfig{geom::Aabb::square(200.0), 10.0, 30.0}),
        router_(net_) {
    // Warm the memo toward the sink and pick a route with a relay to break.
    for (NodeId id = 0; id < net_.size(); ++id) {
      const auto path = path_of(router_, id, net_.sink());
      if (path && path->size() >= 4 && !relay_source_) {
        relay_source_ = id;
        relay_ = (*path)[1];
      }
    }
  }

  static std::vector<geom::Vec2> deploy() {
    rng::Rng rng(11);
    return deploy_uniform_random(1200, geom::Aabb::square(200.0), rng);
  }

  /// Route of the chosen source, which the mutations below must reroute.
  std::optional<std::vector<NodeId>> relay_route() const {
    return path_of(router_, *relay_source_, net_.sink());
  }

  Network net_;
  GreedyGeographicRouter router_;
  std::optional<NodeId> relay_source_;
  NodeId relay_ = kInvalidNodeId;
};

TEST_F(RoutingMemo, FollowsSetAlive) {
  ASSERT_TRUE(relay_source_.has_value());
  const auto before = relay_route();
  net_.set_alive(relay_, false);
  EXPECT_NE(relay_route(), before);
  expect_matches_fresh_router(router_, net_, net_.sink());
}

TEST_F(RoutingMemo, FollowsSetPowerAndReset) {
  ASSERT_TRUE(relay_source_.has_value());
  const auto before = relay_route();
  for (NodeId id = 0; id < net_.size(); id += 3) {
    if (id != net_.sink() && id != *relay_source_) {
      net_.set_power(id, PowerState::kAsleep);
    }
  }
  net_.set_power(relay_, PowerState::kAsleep);
  EXPECT_NE(relay_route(), before);
  expect_matches_fresh_router(router_, net_, net_.sink());

  for (NodeId id = 0; id < net_.size(); ++id) {
    net_.set_power(id, PowerState::kAwake);
  }
  EXPECT_EQ(relay_route(), before);
  expect_matches_fresh_router(router_, net_, net_.sink());
}

TEST_F(RoutingMemo, FollowsBelievedPositions) {
  ASSERT_TRUE(relay_source_.has_value());
  const auto before = relay_route();
  // Every node believes it sits 12 m east of where it is, except the relay,
  // which believes it sits 25 m west: greedy now ranks neighbors differently.
  std::vector<geom::Vec2> believed;
  for (const Node& n : net_.nodes()) {
    believed.push_back(n.position + geom::Vec2{n.id == relay_ ? -25.0 : 12.0, 0.0});
  }
  net_.set_believed_positions(believed);
  EXPECT_NE(relay_route(), before);
  expect_matches_fresh_router(router_, net_, net_.sink());

  net_.clear_believed_positions();
  EXPECT_EQ(relay_route(), before);
  expect_matches_fresh_router(router_, net_, net_.sink());
}

TEST_F(RoutingMemo, FollowsDestinationChange) {
  const NodeId corner = 0;
  expect_matches_fresh_router(router_, net_, corner);
  // And back: the sink's routes are recomputed, not served from a memo
  // filled for the other destination.
  expect_matches_fresh_router(router_, net_, net_.sink());
}

TEST(Routing, MemoizedVoidStillFailsAndChargesNothing) {
  // 1 -> 2 is a void (40 m gap > r_c); 0 -> 2 reaches 1 first, then hits
  // the void memoized by the first query.
  const std::vector<geom::Vec2> positions{{0.0, 50.0}, {20.0, 50.0}, {60.0, 50.0}};
  Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  Radio radio(net, PayloadSizes{});
  const GreedyGeographicRouter router(net);
  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(path_of(router, 1, 2).has_value());
    EXPECT_FALSE(router.send(radio, 1, 2, MessageKind::kMeasurement, 4).has_value());
    EXPECT_FALSE(router.send(radio, 0, 2, MessageKind::kMeasurement, 4).has_value());
  }
  EXPECT_EQ(radio.stats().total_messages(), 0u);
  EXPECT_EQ(radio.stats().total_bytes(), 0u);
}

}  // namespace
}  // namespace cdpf::wsn
