// Unit tests for deployment strategies and the Network spatial/runtime API.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "random/rng.hpp"
#include "support/check.hpp"
#include "geom/angles.hpp"
#include "wsn/deployment.hpp"
#include "wsn/localization.hpp"
#include "wsn/network.hpp"
#include "wsn/radio.hpp"

namespace cdpf::wsn {
namespace {

NetworkConfig paper_config() {
  return NetworkConfig{geom::Aabb::square(200.0), 10.0, 30.0};
}

TEST(Deployment, UniformRandomWithinField) {
  rng::Rng rng(1);
  const geom::Aabb field = geom::Aabb::square(50.0);
  const auto positions = deploy_uniform_random(500, field, rng);
  ASSERT_EQ(positions.size(), 500u);
  for (const geom::Vec2 p : positions) {
    EXPECT_TRUE(field.contains(p));
  }
}

TEST(Deployment, UniformRandomCoversQuadrants) {
  rng::Rng rng(2);
  const geom::Aabb field = geom::Aabb::square(100.0);
  const auto positions = deploy_uniform_random(2000, field, rng);
  int quadrants[4] = {0, 0, 0, 0};
  for (const geom::Vec2 p : positions) {
    quadrants[(p.x > 50.0) + 2 * (p.y > 50.0)]++;
  }
  for (const int q : quadrants) {
    EXPECT_NEAR(q, 500, 120);
  }
}

TEST(Deployment, DensityConversionRoundTrip) {
  const geom::Aabb field = geom::Aabb::square(200.0);
  // Paper: 20 nodes/100 m^2 over 200x200 m => 8000 nodes.
  EXPECT_EQ(node_count_for_density(20.0, field), 8000u);
  EXPECT_EQ(node_count_for_density(5.0, field), 2000u);
  EXPECT_THROW(node_count_for_density(0.0, field), Error);
}

TEST(Network, RejectsInvalidConstruction) {
  EXPECT_THROW(Network({}, paper_config()), Error);
  EXPECT_THROW(Network({{300.0, 0.0}}, paper_config()), Error);
}

TEST(Network, SinkIsNearestToCenter) {
  const std::vector<geom::Vec2> positions{
      {10.0, 10.0}, {99.0, 103.0}, {190.0, 50.0}, {100.0, 160.0}};
  const Network net(positions, paper_config());
  EXPECT_EQ(net.sink(), 1u);
}

TEST(Network, NodesWithinMatchesBruteForce) {
  rng::Rng rng(5);
  const auto positions = deploy_uniform_random(3000, geom::Aabb::square(200.0), rng);
  const Network net(positions, paper_config());
  for (int q = 0; q < 20; ++q) {
    const geom::Vec2 c{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
    const double r = rng.uniform(1.0, 40.0);
    std::vector<NodeId> got;
    net.nodes_within(c, r, got);
    std::sort(got.begin(), got.end());
    std::vector<NodeId> expected;
    for (const Node& n : net.nodes()) {
      if (geom::distance(n.position, c) <= r) {
        expected.push_back(n.id);
      }
    }
    ASSERT_EQ(got, expected);
  }
}

TEST(Network, DetectingNodesUseSensingRadiusAndActivity) {
  const std::vector<geom::Vec2> positions{
      {100.0, 100.0}, {105.0, 100.0}, {111.0, 100.0}, {100.0, 109.0}};
  Network net(positions, paper_config());
  std::vector<NodeId> detecting;
  EXPECT_EQ(net.detecting_nodes({100.0, 100.0}, detecting), 3u);
  std::sort(detecting.begin(), detecting.end());
  EXPECT_EQ(detecting, (std::vector<NodeId>{0, 1, 3}));  // node 2 is 11 m away

  net.set_alive(1, false);
  net.detecting_nodes({100.0, 100.0}, detecting);
  std::sort(detecting.begin(), detecting.end());
  EXPECT_EQ(detecting, (std::vector<NodeId>{0, 3}));

  net.set_power(3, PowerState::kAsleep);
  net.detecting_nodes({100.0, 100.0}, detecting);
  EXPECT_EQ(detecting, (std::vector<NodeId>{0}));
}

TEST(Network, CommNeighborsExcludeSelfAndOutOfRange) {
  // A node's one-hop neighbors are the receivers of its broadcast.
  const std::vector<geom::Vec2> positions{
      {100.0, 100.0}, {120.0, 100.0}, {131.0, 100.0}};
  Network net(positions, paper_config());
  Radio radio(net, PayloadSizes{});
  std::vector<NodeId> receivers;
  radio.broadcast(0, MessageKind::kControl, 1, receivers);
  EXPECT_EQ(receivers, (std::vector<NodeId>{1}));
  radio.broadcast(1, MessageKind::kControl, 1, receivers);
  std::sort(receivers.begin(), receivers.end());
  EXPECT_EQ(receivers, (std::vector<NodeId>{0, 2}));
}

TEST(Network, CountActiveWithinMatchesListQuery) {
  rng::Rng rng(8);
  const auto positions = deploy_uniform_random(800, geom::Aabb::square(200.0), rng);
  Network net(positions, paper_config());
  std::vector<NodeId> out;
  const auto check_everywhere = [&] {
    for (const geom::Vec2 center : {geom::Vec2{100.0, 100.0}, geom::Vec2{0.0, 0.0},
                                    geom::Vec2{199.0, 3.0}, geom::Vec2{55.5, 140.2}}) {
      for (const double radius : {0.0, 10.0, 30.0, 75.0}) {
        EXPECT_EQ(net.count_active_within(center, radius),
                  net.active_nodes_within(center, radius, out))
            << "center (" << center.x << ", " << center.y << ") radius " << radius;
      }
    }
  };
  check_everywhere();  // all-active fast path (pure occupancy count)
  for (NodeId id = 0; id < 800; id += 5) {
    net.set_alive(id, false);
  }
  check_everywhere();  // per-node filter path
}

TEST(Network, OverhearingAssumptionFlag) {
  NetworkConfig c = paper_config();
  EXPECT_TRUE(c.overhearing_assumption_holds());  // 10 <= 30/2
  c.sensing_radius = 16.0;
  EXPECT_FALSE(c.overhearing_assumption_holds());
}

// -- Nearest radio neighbour -------------------------------------------------
// nearest_comm_neighbour must return what the loop it replaced returned: the
// oracle below is that loop, the full scan of the radio disk that greedy
// routing, SDPF re-hosting and CDPF's empty-recorder fallback each ran.

template <double (*Distance)(geom::Vec2, geom::Vec2)>
NodeId scan_nearest(const Network& net, const std::vector<NodeId>& disk, NodeId u,
                    geom::Vec2 target, double bound) {
  NodeId best = kInvalidNodeId;
  double best_d = bound;
  for (const NodeId n : disk) {
    if (n == u) {
      continue;
    }
    const double d = Distance(net.position(n), target);
    if (d < best_d) {
      best_d = d;
      best = n;
    }
  }
  return best;
}

struct QueryTally {
  std::size_t queries = 0;
  std::size_t winners = 0;
  std::size_t mismatches = 0;
  std::string first_mismatch;
};

template <double (*Distance)(geom::Vec2, geom::Vec2)>
void check_query(const Network& net, const std::vector<NodeId>& disk, NodeId u,
                 geom::Vec2 target, double bound, QueryTally& tally) {
  const NodeId expected = scan_nearest<Distance>(net, disk, u, target, bound);
  const NodeId got = net.nearest_comm_neighbour<Distance>(u, target, bound);
  ++tally.queries;
  tally.winners += expected != kInvalidNodeId ? 1 : 0;
  if (got != expected && tally.mismatches++ == 0) {
    std::ostringstream os;
    os.precision(17);
    os << "u " << u << " target (" << target.x << ", " << target.y << ") bound " << bound
       << ": query " << got << ", scan " << expected;
    tally.first_mismatch = os.str();
  }
}

/// `pairs` random (u, target) pairs, each queried under both rankings with
/// the caller's own bound (u's distance) and with none (+inf). Targets mix
/// a re-hosted particle near u, a route destination and points anywhere,
/// mostly outside the field.
QueryTally query_random_pairs(const Network& net, std::uint64_t seed, std::size_t pairs) {
  rng::Rng rng(seed);
  std::vector<NodeId> disk;
  QueryTally tally;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_index(net.size()));
    geom::Vec2 target;
    if (i % 3 == 0) {
      target = net.true_position(u) + geom::Vec2{rng.gaussian(0.0, 15.0),
                                                 rng.gaussian(0.0, 15.0)};
    } else if (i % 3 == 1) {
      target = net.position(static_cast<NodeId>(rng.uniform_index(net.size())));
    } else {
      target = {rng.uniform(-300.0, 500.0), rng.uniform(-300.0, 500.0)};
    }
    net.active_nodes_within(net.true_position(u), net.config().comm_radius, disk);
    const geom::Vec2 own = net.position(u);
    check_query<geom::distance>(net, disk, u, target, geom::distance(own, target), tally);
    check_query<geom::distance>(net, disk, u, target, kInf, tally);
    check_query<geom::distance_squared>(net, disk, u, target,
                                        geom::distance_squared(own, target), tally);
    check_query<geom::distance_squared>(net, disk, u, target, kInf, tally);
  }
  return tally;
}

Network density_40_field(std::uint64_t seed) {
  rng::Rng rng(seed);
  const geom::Aabb field = geom::Aabb::square(200.0);
  return Network(deploy_uniform_random(node_count_for_density(40.0, field), field, rng),
                 paper_config());
}

void expect_query_matches_scan(const Network& net, std::uint64_t seed) {
  const QueryTally tally = query_random_pairs(net, seed, 10000);
  EXPECT_EQ(tally.mismatches, 0u) << tally.first_mismatch;
  // Both outcomes occur: winners and voids.
  EXPECT_GT(tally.winners, tally.queries / 4);
  EXPECT_LT(tally.winners, tally.queries);
}

TEST(NearestCommNeighbour, MatchesScanOnAllActiveDensity40Field) {
  const Network net = density_40_field(31);
  expect_query_matches_scan(net, 1);
}

TEST(NearestCommNeighbour, MatchesScanUnderHalfDutyCycle) {
  Network net = density_40_field(32);
  rng::Rng rng(5);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (rng.bernoulli(0.5)) {
      net.set_power(id, PowerState::kAsleep);
    }
  }
  ASSERT_LT(net.active_count(), net.size());
  expect_query_matches_scan(net, 2);
}

TEST(NearestCommNeighbour, MatchesScanUnderLocalizedPositions) {
  Network net = density_40_field(33);
  rng::Rng rng(6);
  net.set_believed_positions(localize(net, LocalizationConfig{}, rng).positions);
  expect_query_matches_scan(net, 3);
}

TEST(NearestCommNeighbour, MatchesScanWithUnlocalizedNodes) {
  // Few anchors and one round: many nodes fall back to a neighbour centroid
  // or the field center, tens of meters from where they are.
  Network net = density_40_field(34);
  rng::Rng rng(7);
  LocalizationConfig config;
  config.anchor_fraction = 0.003;
  config.rounds = 1;
  const LocalizationResult localized = localize(net, config, rng);
  ASSERT_GT(localized.unlocalized, net.size() / 10);
  net.set_believed_positions(localized.positions);
  expect_query_matches_scan(net, 4);
  // Back to believed == true: the pruning margin shrinks back to zero.
  net.clear_believed_positions();
  expect_query_matches_scan(net, 5);
}

TEST(NearestCommNeighbour, ExactTieGoesToTheFirstNodeInDiskOrder) {
  // b and a lie exactly 7 m from the target. b's cell holds the target, so
  // the search scans it first; a is in an earlier grid cell, so the disk
  // query lists it first and it must win — even though it has the higher id.
  const geom::Vec2 target{51.0, 55.0};
  const std::vector<geom::Vec2> positions{{40.0, 40.0}, {58.0, 55.0}, {51.0, 48.0}};
  const NodeId u = 0;
  const NodeId b = 1;
  const NodeId a = 2;
  const Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  std::vector<NodeId> disk;
  net.active_nodes_within(net.true_position(u), 30.0, disk);
  ASSERT_EQ(disk, (std::vector<NodeId>{u, a, b}));
  EXPECT_EQ(geom::distance(positions[a], target), geom::distance(positions[b], target));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance>(u, target, kInf), a);
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance_squared>(u, target, kInf), a);
  EXPECT_EQ(scan_nearest<geom::distance>(net, disk, u, target, kInf), a);
}

TEST(NearestCommNeighbour, CandidateExactlyAtTheBoundDoesNotWin) {
  const geom::Vec2 target{60.0, 50.0};
  const std::vector<geom::Vec2> positions{{40.0, 50.0}, {50.0, 50.0}};
  const Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance>(0, target, 10.0), kInvalidNodeId);
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance_squared>(0, target, 100.0),
            kInvalidNodeId);
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance>(0, target, std::nextafter(10.0, 11.0)),
            1u);
}

TEST(NearestCommNeighbour, IsolatedNodeAndInactiveNeighbourHaveNoWinner) {
  // Node 2 is 40 m from node 1, beyond r_c.
  const std::vector<geom::Vec2> positions{{10.0, 50.0}, {30.0, 50.0}, {70.0, 50.0}};
  Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance>(2, {0.0, 0.0}, kInf), kInvalidNodeId);
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance>(0, {500.0, -80.0}, kInf), 1u);
  net.set_alive(1, false);
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance>(0, {500.0, -80.0}, kInf),
            kInvalidNodeId);
}

// -- Activity mirror ----------------------------------------------------------
// The network keeps node activity as bytes in grid-slot order plus per-cell
// active tallies, built at the first deactivation and updated per transition.
// Every query that reads them must agree with a brute-force scan of the node
// table through each of those stages.

/// Active nodes within `radius` of `center`, by scanning every node (in id
/// order), with the grid's own disk test.
std::vector<NodeId> brute_active_within(const Network& net, geom::Vec2 center, double radius) {
  std::vector<NodeId> out;
  for (const Node& n : net.nodes()) {
    if (n.active() && geom::distance_squared(n.position, center) <= radius * radius) {
      out.push_back(n.id);
    }
  }
  return out;
}

void expect_active_queries_match_brute_force(const Network& net, std::uint64_t seed) {
  rng::Rng rng(seed);
  std::size_t active = 0;
  for (const Node& n : net.nodes()) {
    active += n.active() ? 1u : 0u;
  }
  EXPECT_EQ(net.active_count(), active);
  const double rc = net.config().comm_radius;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<NodeId> got;
  NodeSoa soa;
  for (int q = 0; q < 300; ++q) {
    const auto u = static_cast<NodeId>(rng.uniform_index(net.size()));
    const geom::Vec2 center =
        q % 2 == 0 ? net.true_position(u)
                   : geom::Vec2{rng.uniform(-20.0, 220.0), rng.uniform(-20.0, 220.0)};
    const double radius = q % 3 == 0 ? rc : rng.uniform(0.0, 45.0);
    const std::vector<NodeId> expected = brute_active_within(net, center, radius);

    EXPECT_EQ(net.count_active_within(center, radius), expected.size()) << "query " << q;
    net.active_nodes_within(center, radius, got);
    net.collect_active_within(center, radius, soa);
    EXPECT_EQ(soa.ids, got) << "query " << q;
    for (std::size_t i = 0; i < soa.size(); ++i) {
      EXPECT_EQ(soa.xs[i], net.true_position(soa.ids[i]).x);
      EXPECT_EQ(soa.ys[i], net.true_position(soa.ids[i]).y);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "query " << q;

    // Nearest radio neighbour of u toward a random target, against the scan
    // of u's brute-force radio disk.
    const std::vector<NodeId> disk = brute_active_within(net, net.true_position(u), rc);
    const geom::Vec2 target{rng.uniform(-50.0, 250.0), rng.uniform(-50.0, 250.0)};
    EXPECT_EQ(net.nearest_comm_neighbour<geom::distance>(u, target, kInf),
              scan_nearest<geom::distance>(net, disk, u, target, kInf))
        << "query " << q;
  }
}

TEST(Network, ActiveQueriesMatchBruteForceAcrossTransitionsAndReset) {
  rng::Rng rng(41);
  const geom::Aabb field = geom::Aabb::square(200.0);
  Network net(deploy_uniform_random(node_count_for_density(10.0, field), field, rng),
              paper_config());
  expect_active_queries_match_brute_force(net, 1);  // never deactivated
  for (std::uint64_t round = 0; round < 4; ++round) {
    // Random transitions, repeats and revivals included.
    for (int i = 0; i < 1500; ++i) {
      const auto id = static_cast<NodeId>(rng.uniform_index(net.size()));
      switch (rng.uniform_index(4)) {
        case 0: net.set_power(id, PowerState::kAsleep); break;
        case 1: net.set_power(id, PowerState::kAwake); break;
        case 2: net.set_alive(id, false); break;
        default: net.set_alive(id, true); break;
      }
    }
    ASSERT_LT(net.active_count(), net.size());
    expect_active_queries_match_brute_force(net, 2 + round);
  }
  // Every node revived, through the per-node transitions.
  for (NodeId id = 0; id < net.size(); ++id) {
    net.set_alive(id, true);
    net.set_power(id, PowerState::kAwake);
  }
  ASSERT_EQ(net.active_count(), net.size());
  expect_active_queries_match_brute_force(net, 6);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (rng.bernoulli(0.3)) {
      net.set_power(id, PowerState::kAsleep);
    }
  }
  expect_active_queries_match_brute_force(net, 7);
  // Every node asleep, then one awake again.
  for (NodeId id = 0; id < net.size(); ++id) {
    net.set_power(id, PowerState::kAsleep);
  }
  expect_active_queries_match_brute_force(net, 8);
  net.set_power(0, PowerState::kAwake);
  expect_active_queries_match_brute_force(net, 9);
}

}  // namespace
}  // namespace cdpf::wsn
