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
  EXPECT_EQ(radio.broadcast(0, MessageKind::kControl, 1), 1u);
  net.active_nodes_within(net.true_position(0), 30.0, receivers);
  std::erase(receivers, 0);
  EXPECT_EQ(receivers, (std::vector<NodeId>{1}));
  EXPECT_EQ(radio.broadcast(1, MessageKind::kControl, 1), 2u);
  net.active_nodes_within(net.true_position(1), 30.0, receivers);
  std::erase(receivers, 1);
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

// -- Ring search edge cases ---------------------------------------------------
// The search visits cells in rings around the target's cell and stops at the
// first ring that cannot hold a winner; these cases aim at its bounds.

/// Every target on a cell edge or corner within r_c / 2 of u's true position
/// (the re-host regime), for `count` random nodes u, checked against the scan
/// under both rankings with u's own distance and with no bound.
QueryTally query_cell_lines(const Network& net, std::uint64_t seed, std::size_t count) {
  rng::Rng rng(seed);
  std::vector<NodeId> disk;
  QueryTally tally;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const geom::Aabb& field = net.config().field;
  const double cell = net.config().sensing_radius;  // the grid's cell size
  const double reach = net.config().comm_radius / 2.0;
  auto query = [&](NodeId u, geom::Vec2 target) {
    if (geom::distance(net.true_position(u), target) > reach) {
      return;
    }
    const geom::Vec2 own = net.position(u);
    check_query<geom::distance>(net, disk, u, target, geom::distance(own, target), tally);
    check_query<geom::distance>(net, disk, u, target, kInf, tally);
    check_query<geom::distance_squared>(net, disk, u, target,
                                        geom::distance_squared(own, target), tally);
    check_query<geom::distance_squared>(net, disk, u, target, kInf, tally);
  };
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_index(net.size()));
    const geom::Vec2 p = net.true_position(u);
    net.active_nodes_within(p, net.config().comm_radius, disk);
    const double off = rng.uniform(-reach, reach);
    const double i0 = std::floor((p.x - reach - field.lo.x) / cell);
    const double j0 = std::floor((p.y - reach - field.lo.y) / cell);
    for (double a = i0; a <= i0 + 2.0 * reach / cell + 1.0; a += 1.0) {
      const double x = field.lo.x + a * cell;
      for (double b = j0; b <= j0 + 2.0 * reach / cell + 1.0; b += 1.0) {
        query(u, {x, field.lo.y + b * cell});  // a corner
      }
      query(u, {x, p.y + off});  // a vertical edge
    }
    for (double b = j0; b <= j0 + 2.0 * reach / cell + 1.0; b += 1.0) {
      query(u, {p.x + off, field.lo.y + b * cell});  // a horizontal edge
    }
  }
  return tally;
}

TEST(NearestCommNeighbour, MatchesScanOnAFieldWithPartialLastCells) {
  // 187.3 m x 153.7 m from an off-origin corner: the last column and row of
  // 10 m cells reach past the field.
  const geom::Aabb field{{-3.5, 12.25}, {183.8, 165.95}};
  rng::Rng rng(35);
  Network net(deploy_uniform_random(node_count_for_density(40.0, field), field, rng),
              NetworkConfig{field, 10.0, 30.0});
  expect_query_matches_scan(net, 6);
  const QueryTally lines = query_cell_lines(net, 7, 200);
  EXPECT_EQ(lines.mismatches, 0u) << lines.first_mismatch;
  EXPECT_GT(lines.winners, lines.queries / 4);
}

TEST(NearestCommNeighbour, MatchesScanOnCellEdgesAndCornersNearU) {
  Network net = density_40_field(36);
  QueryTally tally = query_cell_lines(net, 8, 300);
  EXPECT_EQ(tally.mismatches, 0u) << tally.first_mismatch;
  EXPECT_GT(tally.winners, tally.queries / 4);
  // The same targets under half the nodes asleep, and under localized
  // positions.
  rng::Rng rng(9);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (rng.bernoulli(0.5)) {
      net.set_power(id, PowerState::kAsleep);
    }
  }
  net.set_believed_positions(localize(net, LocalizationConfig{}, rng).positions);
  tally = query_cell_lines(net, 10, 300);
  EXPECT_EQ(tally.mismatches, 0u) << tally.first_mismatch;
}

TEST(NearestCommNeighbour, ExactTieAcrossRingsGoesToTheEarlierCell) {
  // The target sits on the corner of cell (5, 5). q, in that cell (ring 0),
  // and p, in cell (3, 5) (ring 2), lie at the same squared distance 110.5
  // from it; p's cell comes first in disk order, so p must win although the
  // search meets q first.
  const geom::Vec2 target{50.0, 50.0};
  const std::vector<geom::Vec2> positions{{45.0, 55.0}, {54.5, 59.5}, {39.5, 50.5}};
  const NodeId u = 0;
  const NodeId q = 1;
  const NodeId p = 2;
  const Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  ASSERT_EQ(geom::distance_squared(positions[p], target),
            geom::distance_squared(positions[q], target));
  std::vector<NodeId> disk;
  net.active_nodes_within(net.true_position(u), 30.0, disk);
  ASSERT_EQ(disk, (std::vector<NodeId>{p, u, q}));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance>(u, target, kInf), p);
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance_squared>(u, target, kInf), p);
  EXPECT_EQ(scan_nearest<geom::distance>(net, disk, u, target, kInf), p);
}

TEST(NearestCommNeighbour, RingTwoNodeNearerThanTheRingOneBestWins) {
  // The target sits at the far edge of its cell (5, 5). a, in ring 1, is
  // 14.99 m away; b, in ring 2, only 11.01 m: no ring can be cut off
  // before its cells are (k - 1) cell sizes away.
  const geom::Vec2 target{59.99, 55.0};
  const std::vector<geom::Vec2> positions{{50.0, 40.0}, {45.0, 55.0}, {71.0, 55.0}};
  const Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance>(0, target, kInf), 2u);
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance_squared>(0, target, kInf), 2u);
}

TEST(NearestCommNeighbour, OneFarDisplacedNodeWidensEveryRing) {
  // Node w, in cell (2, 5), three rings from the target's cell (5, 5),
  // believes itself 1 m from the target; a, in the target's own cell, is
  // sqrt(5) m away. Only the largest displacement lets the search reach w.
  const geom::Vec2 target{55.0, 52.0};
  const std::vector<geom::Vec2> positions{{50.0, 50.0}, {56.0, 50.0}, {25.0, 50.0}};
  const NodeId u = 0;
  const NodeId w = 2;
  Network net(positions, NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0});
  std::vector<geom::Vec2> believed = positions;
  believed[w] = {55.0, 51.0};
  net.set_believed_positions(believed);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance>(u, target, kInf), w);
  EXPECT_EQ(net.nearest_comm_neighbour<geom::distance_squared>(u, target, 4.0), w);

  // The same on a density-40 field: the nodes of cell (9, 9) believe
  // themselves 40 m away, all other nodes where they are. Each moved node is
  // sought from a radio neighbour, with its believed position as target.
  Network field = density_40_field(37);
  believed.assign(field.size(), {});
  std::vector<NodeId> moved;
  rng::Rng rng(11);
  for (NodeId id = 0; id < field.size(); ++id) {
    const geom::Vec2 p = field.true_position(id);
    believed[id] = p;
    if (std::floor(p.x / 10.0) == 9.0 && std::floor(p.y / 10.0) == 9.0) {
      believed[id] += geom::Vec2::from_angle(rng.uniform(0.0, geom::kTwoPi)) * 40.0;
      moved.push_back(id);
    }
  }
  field.set_believed_positions(believed);
  ASSERT_FALSE(moved.empty());
  QueryTally tally;
  std::vector<NodeId> disk;
  for (const NodeId m : moved) {
    field.active_nodes_within(field.true_position(m), 30.0, disk);
    NodeId from = m;
    while (from == m) {
      from = disk[rng.uniform_index(disk.size())];
    }
    field.active_nodes_within(field.true_position(from), 30.0, disk);
    const geom::Vec2 sought =
        believed[m] + geom::Vec2{rng.gaussian(0.0, 0.5), rng.gaussian(0.0, 0.5)};
    check_query<geom::distance>(field, disk, from, sought, kInf, tally);
    check_query<geom::distance_squared>(field, disk, from, sought, kInf, tally);
  }
  EXPECT_EQ(tally.mismatches, 0u) << tally.first_mismatch;
  EXPECT_GT(tally.winners, 0u);
  expect_query_matches_scan(field, 12);
}

TEST(Network, VisitActiveWithinHandsTrueAndBelievedPositions) {
  // The disk test runs on true positions; each visited node comes with its
  // true position and position(id), believed positions included (one of
  // them NaN), in active_nodes_within's order.
  rng::Rng rng(23);
  const geom::Aabb field = geom::Aabb::square(200.0);
  const auto positions =
      deploy_uniform_random(node_count_for_density(10.0, field), field, rng);
  Network net(positions, paper_config());
  std::vector<geom::Vec2> believed = positions;
  for (geom::Vec2& b : believed) {
    b += geom::Vec2{rng.gaussian(0.0, 4.0), rng.gaussian(0.0, 4.0)};
  }
  believed[7] = {std::numeric_limits<double>::quiet_NaN(), 0.0};
  net.set_believed_positions(believed);
  for (NodeId id = 0; id < net.size(); id += 5) {
    net.set_power(id, PowerState::kAsleep);
  }
  std::vector<NodeId> expected;
  std::vector<NodeId> visited;
  for (int q = 0; q < 50; ++q) {
    // The first query holds the NaN node.
    const geom::Vec2 center = q == 0 ? net.true_position(7)
                                     : geom::Vec2{rng.uniform(0.0, 200.0),
                                                  rng.uniform(0.0, 200.0)};
    const double radius = q == 0 ? 30.0 : rng.uniform(0.0, 40.0);
    net.active_nodes_within(center, radius, expected);
    if (q == 0) {
      ASSERT_NE(std::find(expected.begin(), expected.end(), 7u), expected.end());
    }
    visited.clear();
    net.visit_active_within(center, radius, [&](NodeId id, geom::Vec2 at, geom::Vec2 b) {
      visited.push_back(id);
      EXPECT_EQ(at, net.true_position(id));
      if (std::isnan(b.x)) {
        EXPECT_TRUE(std::isnan(net.position(id).x));
        EXPECT_EQ(b.y, net.position(id).y);
      } else {
        EXPECT_EQ(b, net.position(id));
      }
    });
    EXPECT_EQ(visited, expected) << "query " << q;
  }
  EXPECT_EQ(net.max_believed_displacement(), std::numeric_limits<double>::infinity());
  net.clear_believed_positions();
  EXPECT_EQ(net.max_believed_displacement(), 0.0);
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
  std::vector<NodeId> visited;
  for (int q = 0; q < 300; ++q) {
    const auto u = static_cast<NodeId>(rng.uniform_index(net.size()));
    const geom::Vec2 center =
        q % 2 == 0 ? net.true_position(u)
                   : geom::Vec2{rng.uniform(-20.0, 220.0), rng.uniform(-20.0, 220.0)};
    const double radius = q % 3 == 0 ? rc : rng.uniform(0.0, 45.0);
    const std::vector<NodeId> expected = brute_active_within(net, center, radius);

    EXPECT_EQ(net.count_active_within(center, radius), expected.size()) << "query " << q;
    net.active_nodes_within(center, radius, got);
    visited.clear();
    net.visit_active_within(center, radius, [&](NodeId id, geom::Vec2 at, geom::Vec2 b) {
      visited.push_back(id);
      EXPECT_EQ(at, net.true_position(id));
      EXPECT_EQ(b, at);
    });
    EXPECT_EQ(visited, got) << "query " << q;
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
