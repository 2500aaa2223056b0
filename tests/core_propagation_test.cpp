// Tests for particle propagation: the division/combination rules of §III-B
// and the overhearing-completeness property that makes CDPF's correction
// step possible (§IV-A).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/propagation.hpp"
#include "random/rng.hpp"
#include "support/statistics.hpp"
#include "support/check.hpp"
#include "tracking/detection.hpp"
#include "tracking/motion_model.hpp"
#include "wsn/deployment.hpp"
#include "wsn/localization.hpp"
#include "wsn/radio.hpp"

namespace cdpf::core {
namespace {

wsn::NetworkConfig paper_config(double sensing = 10.0, double comm = 30.0) {
  return wsn::NetworkConfig{geom::Aabb::square(200.0), sensing, comm};
}

// No turns and no speed noise over one substep: particles move in a straight
// line, so where a round lands is predictable.
tracking::RandomTurnMotionModel quiet_motion(double dt = 5.0) {
  return tracking::RandomTurnMotionModel(dt, dt, 0.0, 0.0);
}

/// A round's reusable buffers, kept across rounds the way Cdpf keeps them.
struct Round {
  PropagationOutcome outcome;
  PropagationScratch scratch;

  const PropagationOutcome& run(const ParticleStore& store, const wsn::Network& net,
                                wsn::Radio& radio,
                                const tracking::RandomTurnMotionModel& motion,
                                rng::Rng& rng) {
    outcome.reset();
    propagate_particles_into(store, net, radio, motion, rng, outcome, scratch);
    return outcome;
  }
};

TEST(Propagation, WeightIsConservedThroughDivision) {
  // Dense deployment so the predicted area certainly contains recorders.
  rng::Rng rng(501);
  const auto positions = wsn::deploy_uniform_random(4000, geom::Aabb::square(200.0), rng);
  wsn::Network net(positions, paper_config());
  wsn::Radio radio(net, wsn::PayloadSizes{});

  ParticleStore store;
  std::vector<wsn::NodeId> hosts;
  net.nodes_within({100.0, 100.0}, 10.0, hosts);
  ASSERT_GE(hosts.size(), 3u);
  double total_in = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    store.add(hosts[i], {3.0, 0.0}, 1.0 + static_cast<double>(i));
    total_in += 1.0 + static_cast<double>(i);
  }

  Round round;
  const PropagationOutcome& outcome =
      round.run(store, net, radio, quiet_motion(), rng);
  EXPECT_EQ(outcome.lost_particles, 0u);
  EXPECT_NEAR(outcome.next.total_weight(), total_in, 1e-9);
  EXPECT_NEAR(outcome.global.total_weight, total_in, 1e-12);
}

TEST(Propagation, DivisionFollowsLinearProbabilityRatios) {
  // One broadcaster, hand-placed recorders at known distances from the
  // predicted position: weights must divide as (1 - d/r) ratios.
  std::vector<geom::Vec2> positions{
      {100.0, 100.0},   // host; velocity (2,0), dt 5 => predicted (110, 100)
      {110.0, 100.0},   // d = 0  => p = 1
      {110.0, 105.0},   // d = 5  => p = 0.5
      {110.0, 108.0},   // d = 8  => p = 0.2
      {110.0, 115.0}};  // d = 15 => outside predicted area
  wsn::Network net(positions, paper_config());
  wsn::Radio radio(net, wsn::PayloadSizes{});
  ParticleStore store;
  store.add(0, {2.0, 0.0}, 1.7);

  rng::Rng rng(503);
  Round round;
  const PropagationOutcome& outcome =
      round.run(store, net, radio, quiet_motion(), rng);
  EXPECT_FALSE(outcome.next.contains(4));
  const double p_sum = 1.0 + 0.5 + 0.2;
  ASSERT_TRUE(outcome.next.contains(1));
  ASSERT_TRUE(outcome.next.contains(2));
  ASSERT_TRUE(outcome.next.contains(3));
  EXPECT_NEAR(outcome.next.find(1)->weight, 1.7 * 1.0 / p_sum, 1e-9);
  EXPECT_NEAR(outcome.next.find(2)->weight, 1.7 * 0.5 / p_sum, 1e-9);
  EXPECT_NEAR(outcome.next.find(3)->weight, 1.7 * 0.2 / p_sum, 1e-9);
  // Rule 1: total preserved. Rule 2: ratios follow the linear model.
  EXPECT_NEAR(outcome.next.total_weight(), 1.7, 1e-9);
}

TEST(Propagation, OverlappingPredictedAreasCombineOnSharedRecorder) {
  std::vector<geom::Vec2> positions{
      {100.0, 100.0},  // host A, predicted (110, 100)
      {120.0, 100.0},  // host B, velocity (-2, 0), predicted (110, 100)
      {110.0, 100.0}}; // the only node in both predicted areas
  wsn::Network net(positions, paper_config());
  wsn::Radio radio(net, wsn::PayloadSizes{});
  ParticleStore store;
  store.add(0, {2.0, 0.0}, 1.0);
  store.add(1, {-2.0, 0.0}, 2.0);

  rng::Rng rng(505);
  Round round;
  const PropagationOutcome& outcome = round.run(store, net, radio, quiet_motion(), rng);
  // Both particles land on node 2... but also on each other's host? Host A
  // at (100,100) is 10 m from predicted (110,100): p = 0 (boundary). So the
  // sole recorder is node 2, holding the combined weight.
  ASSERT_TRUE(outcome.next.contains(2));
  EXPECT_NEAR(outcome.next.find(2)->weight, 3.0, 1e-9);
  EXPECT_EQ(outcome.next.size(), 1u);
}

TEST(Propagation, OverhearingIsCompleteUnderPaperAssumption) {
  // r_s <= r_c / 2 plus the paper's "propagation does not reach too far"
  // caveat (§IV-A): with hosts spread over a 10 m disk, 3 m of per-step
  // travel (dt = 1 s) and a 10 m record radius, every recorder is within
  // 10 + 10 + 3 = 23 m <= r_c of every broadcaster, so each recorder's
  // overheard total equals the global total.
  rng::Rng rng(507);
  const auto positions = wsn::deploy_uniform_random(8000, geom::Aabb::square(200.0), rng);
  wsn::Network net(positions, paper_config(10.0, 30.0));
  wsn::Radio radio(net, wsn::PayloadSizes{});

  ParticleStore store;
  std::vector<wsn::NodeId> hosts;
  net.nodes_within({100.0, 100.0}, 5.0, hosts);
  for (const wsn::NodeId id : hosts) {
    store.add(id, {3.0, 0.0}, 1.0);
  }
  ASSERT_GT(store.size(), 5u);

  Round round;
  const PropagationOutcome& outcome =
      round.run(store, net, radio, quiet_motion(1.0), rng);
  ASSERT_GT(outcome.next.size(), 0u);
  for (const NodeParticle& particle : outcome.next.particles()) {
    const OverheardAggregate heard = overheard_by(particle.host, store, net);
    ASSERT_GT(heard.particles_heard, 0u);
    EXPECT_NEAR(heard.total_weight, outcome.global.total_weight, 1e-9)
        << "recorder " << particle.host;
    EXPECT_EQ(heard.particles_heard, outcome.global.particles_heard);
    // The locally overheard estimate matches the global one (Theorem-2-like
    // consistency of the correction step).
    const auto local = heard.estimate();
    const auto global = outcome.global.estimate();
    EXPECT_NEAR(geom::distance(local.position, global.position), 0.0, 1e-9);
  }
}

TEST(Propagation, OverhearingCanBeIncompleteWhenAssumptionViolated) {
  // With r_s > r_c / 2 two broadcasters' recorders need not hear each other.
  rng::Rng rng(509);
  const auto positions = wsn::deploy_uniform_random(8000, geom::Aabb::square(200.0), rng);
  wsn::Network net(positions, paper_config(18.0, 30.0));
  ASSERT_FALSE(net.config().overhearing_assumption_holds());
  wsn::Radio radio(net, wsn::PayloadSizes{});

  ParticleStore store;
  // Two hosts 30 m apart moving in opposite directions.
  std::vector<wsn::NodeId> near_a;
  std::vector<wsn::NodeId> near_b;
  net.nodes_within({70.0, 100.0}, 3.0, near_a);
  net.nodes_within({130.0, 100.0}, 3.0, near_b);
  ASSERT_FALSE(near_a.empty());
  ASSERT_FALSE(near_b.empty());
  store.add(near_a.front(), {-3.0, 0.0}, 1.0);
  store.add(near_b.front(), {3.0, 0.0}, 1.0);

  Round round;  // the predicted area is the network's r_s = 18 m
  const PropagationOutcome& outcome = round.run(store, net, radio, quiet_motion(), rng);
  std::size_t incomplete = 0;
  for (const NodeParticle& particle : outcome.next.particles()) {
    const OverheardAggregate heard = overheard_by(particle.host, store, net);
    if (heard.particles_heard == 0 ||
        heard.total_weight < outcome.global.total_weight - 1e-9) {
      ++incomplete;
    }
  }
  EXPECT_GT(incomplete, 0u);
}

TEST(Propagation, OverheardByFollowsTheReceiverRule) {
  std::vector<geom::Vec2> positions{
      {50.0, 50.0},   // broadcaster A
      {110.0, 50.0},  // broadcaster B, 60 m from A
      {80.0, 50.0},   // 30 m from both: on both comm disks (closed)
      {50.0, 75.0},   // hears A only
      {50.0, 81.0},   // 31 m from A: hears nobody
      {52.0, 50.0}};  // hears A only, but asleep
  wsn::Network net(positions, paper_config());
  ParticleStore broadcasters;
  broadcasters.add(1, {0.0, 2.0}, 3.0);
  broadcasters.add(0, {2.0, 0.0}, 1.0);
  net.set_power(5, wsn::PowerState::kAsleep);

  const OverheardAggregate own = overheard_by(0, broadcasters, net);
  EXPECT_EQ(own.particles_heard, 1u);  // its own broadcast; B is 60 m away
  EXPECT_DOUBLE_EQ(own.total_weight, 1.0);
  const OverheardAggregate both = overheard_by(2, broadcasters, net);
  EXPECT_EQ(both.particles_heard, 2u);
  EXPECT_DOUBLE_EQ(both.total_weight, 4.0);
  EXPECT_DOUBLE_EQ(both.weighted_position.x, 50.0 * 1.0 + 110.0 * 3.0);
  EXPECT_DOUBLE_EQ(both.weighted_speed, 2.0 * 1.0 + 2.0 * 3.0);
  EXPECT_EQ(overheard_by(3, broadcasters, net).particles_heard, 1u);
  EXPECT_EQ(overheard_by(4, broadcasters, net).particles_heard, 0u);
  EXPECT_EQ(overheard_by(5, broadcasters, net).particles_heard, 0u);

  // An inactive host did not broadcast, so nobody hears its particle.
  net.set_power(0, wsn::PowerState::kAsleep);
  EXPECT_EQ(overheard_by(2, broadcasters, net).particles_heard, 1u);
  EXPECT_DOUBLE_EQ(overheard_by(2, broadcasters, net).total_weight, 3.0);
  EXPECT_THROW(overheard_by(6, broadcasters, net), Error);
}

TEST(Propagation, LostParticleWithoutFallback) {
  // A host with no other active node within r_c: the broadcast reaches
  // nobody, so there is neither a recorder nor a nearest receiver to fall
  // back to, and the particle is lost with its mass.
  std::vector<geom::Vec2> positions{{10.0, 10.0}, {10.0, 45.0}, {60.0, 10.0}};
  wsn::Network net(positions, paper_config());
  wsn::Radio radio(net, wsn::PayloadSizes{});
  ParticleStore store;
  store.add(0, {3.0, 0.0}, 1.5);  // predicted (25, 10); nodes 1, 2 are 35, 50 m away

  rng::Rng rng(511);
  Round round;
  const PropagationOutcome& outcome =
      round.run(store, net, radio, quiet_motion(), rng);
  EXPECT_EQ(outcome.num_broadcasts, 1u);
  EXPECT_EQ(outcome.lost_particles, 1u);
  EXPECT_DOUBLE_EQ(outcome.lost_weight, 1.5);
  EXPECT_TRUE(outcome.next.empty());

  // A receiver in range but outside the predicted area takes the whole
  // particle as the nearest receiver instead.
  positions[1] = {10.0, 35.0};  // 29 m from the predicted position
  wsn::Network near(positions, paper_config());
  wsn::Radio near_radio(near, wsn::PayloadSizes{});
  round.run(store, near, near_radio, quiet_motion(), rng);
  EXPECT_EQ(outcome.lost_particles, 0u);
  EXPECT_DOUBLE_EQ(outcome.lost_weight, 0.0);
  ASSERT_TRUE(outcome.next.contains(1));
  EXPECT_NEAR(outcome.next.find(1)->weight, 1.5, 1e-12);
}

TEST(Propagation, InactiveHostLosesItsParticle) {
  rng::Rng rng(513);
  const auto positions = wsn::deploy_uniform_random(2000, geom::Aabb::square(200.0), rng);
  wsn::Network net(positions, paper_config());
  wsn::Radio radio(net, wsn::PayloadSizes{});
  ParticleStore store;
  std::vector<wsn::NodeId> hosts;
  net.nodes_within({100.0, 100.0}, 10.0, hosts);
  ASSERT_GE(hosts.size(), 2u);
  store.add(hosts[0], {3.0, 0.0}, 1.0);
  store.add(hosts[1], {3.0, 0.0}, 1.0);
  net.set_alive(hosts[0], false);

  Round round;
  const PropagationOutcome& outcome =
      round.run(store, net, radio, quiet_motion(), rng);
  EXPECT_EQ(outcome.lost_particles, 1u);
  EXPECT_NEAR(outcome.global.total_weight, 1.0, 1e-12);
}

TEST(Propagation, ChargesOneBroadcastPerHost) {
  rng::Rng rng(515);
  const auto positions = wsn::deploy_uniform_random(4000, geom::Aabb::square(200.0), rng);
  wsn::Network net(positions, paper_config());
  wsn::Radio radio(net, wsn::PayloadSizes{});
  ParticleStore store;
  std::vector<wsn::NodeId> hosts;
  net.nodes_within({100.0, 100.0}, 10.0, hosts);
  const std::size_t n = std::min<std::size_t>(hosts.size(), 5);
  for (std::size_t i = 0; i < n; ++i) {
    store.add(hosts[i], {3.0, 0.0}, 1.0);
  }
  Round().run(store, net, radio, quiet_motion(), rng);
  const auto& payloads = radio.payloads();
  EXPECT_EQ(radio.stats().messages(wsn::MessageKind::kParticle), n);
  EXPECT_EQ(radio.stats().bytes(wsn::MessageKind::kParticle),
            n * (payloads.particle + payloads.weight));
}

TEST(Propagation, DisplacementVelocityPointsAlongHop) {
  std::vector<geom::Vec2> positions{{100.0, 100.0}, {110.0, 100.0}};
  wsn::Network net(positions, paper_config());
  wsn::Radio radio(net, wsn::PayloadSizes{});
  ParticleStore store;
  store.add(0, {2.0, 0.0}, 1.0);
  rng::Rng rng(517);
  Round round;
  const PropagationOutcome& outcome =
      round.run(store, net, radio, quiet_motion(), rng);
  ASSERT_TRUE(outcome.next.contains(1));
  const geom::Vec2 v = outcome.next.find(1)->velocity;
  // Hop displacement is +x: the recorded heading must be +x, speed ~2.
  EXPECT_NEAR(v.angle(), 0.0, 1e-6);
  EXPECT_NEAR(v.norm(), 2.0, 1e-3);
}

TEST(Propagation, CoLocatedRecorderKeepsTheSampledHeading) {
  // Node 1 sits on the host, so its hop has no direction: the recorded copy
  // keeps the heading the proposal sampled, and its velocity is sample()'s
  // bit for bit, with and without believed positions, with the same RNG
  // consumption.
  const std::vector<geom::Vec2> positions{{100.0, 100.0}, {100.0, 100.0}};
  wsn::Network net(positions, paper_config());
  const tracking::RandomTurnMotionModel motion = tracking::make_motion_model(5.0);
  const geom::Vec2 host_velocity{0.6, -0.8};  // predicted (103, 96): 5 m off node 1
  ParticleStore store;
  store.add(0, host_velocity, 1.3);
  for (const bool believed : {false, true}) {
    SCOPED_TRACE(believed ? "believed == true positions" : "true positions");
    if (believed) {
      net.set_believed_positions(positions);
    }
    wsn::Radio radio(net, wsn::PayloadSizes{});
    rng::Rng rng(523);
    rng::Rng twin(523);
    Round round;
    const PropagationOutcome& outcome = round.run(store, net, radio, motion, rng);
    ASSERT_EQ(outcome.next.size(), 1u);
    ASSERT_TRUE(outcome.next.contains(1));
    const geom::Vec2 expected = motion.sample({positions[0], host_velocity}, twin).velocity;
    const geom::Vec2 v = outcome.next.find(1)->velocity;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.x), std::bit_cast<std::uint64_t>(expected.x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.y), std::bit_cast<std::uint64_t>(expected.y));
    EXPECT_NEAR(outcome.next.find(1)->weight, 1.3, 1e-12);
    EXPECT_EQ(rng.uniform(), twin.uniform());
  }
}

TEST(Propagation, BelievedEqualTruePositionsLeaveRoundBitIdentical) {
  // Installing believed positions equal to the true ones must leave a round
  // bit-identical: the same recorders in the same order, weights,
  // velocities, aggregate, statistics and RNG consumption. The sparse
  // density exercises the nearest-receiver fallback, and one host in nine
  // plus a few bystanders sleep.
  const geom::Aabb field = geom::Aabb::square(200.0);
  for (const double density : {0.5, 5.0, 20.0, 40.0}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(::testing::Message() << "density " << density << " seed " << seed);
      rng::Rng setup(seed);
      const auto positions = wsn::deploy_uniform_random(
          wsn::node_count_for_density(density, field), field, setup);
      wsn::Network net(positions, paper_config());
      ParticleStore store;
      const geom::Vec2 target{setup.uniform(40.0, 160.0), setup.uniform(40.0, 160.0)};
      std::vector<wsn::NodeId> ids;
      net.nodes_within(target, density < 1.0 ? 40.0 : 12.0, ids);
      for (const wsn::NodeId id : ids) {
        store.add(id, {setup.uniform(-3.0, 3.0), setup.uniform(-3.0, 3.0)},
                  setup.uniform(0.1, 2.0));
        if (id % 9 == 4) {
          net.set_power(id, wsn::PowerState::kAsleep);
        }
      }
      net.nodes_within(target, 25.0, ids);
      for (const wsn::NodeId id : ids) {
        if (id % 13 == 5) {
          net.set_power(id, wsn::PowerState::kAsleep);
        }
      }
      ASSERT_FALSE(store.empty());
      const tracking::RandomTurnMotionModel motion = tracking::make_motion_model(5.0);

      wsn::Radio direct_radio(net, wsn::PayloadSizes{});
      rng::Rng direct_rng(seed + 100);
      Round direct_round;
      const PropagationOutcome& direct =
          direct_round.run(store, net, direct_radio, motion, direct_rng);

      net.set_believed_positions(positions);
      ASSERT_EQ(net.max_believed_displacement(), 0.0);
      wsn::Radio listed_radio(net, wsn::PayloadSizes{});
      rng::Rng listed_rng(seed + 100);
      Round listed_round;
      const PropagationOutcome& listed =
          listed_round.run(store, net, listed_radio, motion, listed_rng);
      net.clear_believed_positions();

      ASSERT_EQ(direct.next.size(), listed.next.size());
      EXPECT_GT(direct.next.size(), 0u);
      for (std::size_t i = 0; i < direct.next.size(); ++i) {
        const NodeParticle& a = direct.next.particles()[i];
        const NodeParticle& b = listed.next.particles()[i];
        EXPECT_EQ(a.host, b.host) << "particle " << i;
        EXPECT_EQ(a.weight, b.weight) << "particle " << i;
        EXPECT_EQ(a.velocity.x, b.velocity.x) << "particle " << i;
        EXPECT_EQ(a.velocity.y, b.velocity.y) << "particle " << i;
      }
      EXPECT_EQ(direct.global.total_weight, listed.global.total_weight);
      EXPECT_EQ(direct.global.weighted_position.x, listed.global.weighted_position.x);
      EXPECT_EQ(direct.global.weighted_position.y, listed.global.weighted_position.y);
      EXPECT_EQ(direct.global.weighted_velocity.x, listed.global.weighted_velocity.x);
      EXPECT_EQ(direct.global.weighted_velocity.y, listed.global.weighted_velocity.y);
      EXPECT_EQ(direct.global.weighted_speed, listed.global.weighted_speed);
      EXPECT_EQ(direct.global.particles_heard, listed.global.particles_heard);
      EXPECT_EQ(direct.num_broadcasts, listed.num_broadcasts);
      EXPECT_EQ(direct.lost_particles, listed.lost_particles);
      EXPECT_EQ(direct.lost_weight, listed.lost_weight);
      for (std::size_t k = 0; k < wsn::kNumMessageKinds; ++k) {
        const auto kind = static_cast<wsn::MessageKind>(k);
        EXPECT_EQ(direct_radio.stats().messages(kind), listed_radio.stats().messages(kind));
        EXPECT_EQ(direct_radio.stats().bytes(kind), listed_radio.stats().bytes(kind));
        EXPECT_EQ(direct_radio.stats().receptions(kind),
                  listed_radio.stats().receptions(kind));
      }
      EXPECT_EQ(direct_rng.uniform(), listed_rng.uniform());
    }
  }
}

/// Expect a one-particle round from `host` to record on the brute-force
/// recorders, in order and with their weights: the nodes active_nodes_within
/// lists within r_c of the host's true position, minus the host, whose
/// believed position lies in the predicted area by the linear model (a NaN
/// one never does). Counts the rounds compared in `recorded`; a host with
/// no such node is skipped (its round falls back to the nearest receiver).
void expect_round_matches_brute_force(wsn::Network& net, wsn::NodeId host,
                                      geom::Vec2 velocity, std::uint64_t seed,
                                      std::size_t& recorded) {
  SCOPED_TRACE(::testing::Message() << "host " << host);
  const tracking::RandomTurnMotionModel motion = tracking::make_motion_model(5.0);
  const tracking::LinearProbabilityModel lin_prob(net.config().sensing_radius);
  const geom::Vec2 predicted = net.position(host) + velocity * motion.dt();
  std::vector<wsn::NodeId> receivers;
  net.active_nodes_within(net.true_position(host), net.config().comm_radius, receivers);
  std::vector<wsn::NodeId> expected;
  std::vector<double> probabilities;
  double probability_sum = 0.0;
  for (const wsn::NodeId r : receivers) {
    const geom::Vec2 d = net.position(r) - predicted;
    const double d2 = d.x * d.x + d.y * d.y;
    if (r == host || std::isnan(d2)) {
      continue;
    }
    const double p = lin_prob.probability(std::sqrt(d2));
    if (p > 0.0) {
      expected.push_back(r);
      probabilities.push_back(p);
      probability_sum += p;
    }
  }
  if (expected.empty()) {
    return;
  }
  ParticleStore store;
  store.add(host, velocity, 1.7);
  wsn::Radio radio(net, wsn::PayloadSizes{});
  rng::Rng rng(seed);
  Round round;
  const PropagationOutcome& outcome = round.run(store, net, radio, motion, rng);
  ASSERT_EQ(outcome.next.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(outcome.next.particles()[i].host, expected[i]) << "recorder " << i;
    EXPECT_EQ(outcome.next.particles()[i].weight,
              1.7 * probabilities[i] / probability_sum)
        << "recorder " << i;
  }
  ++recorded;
}

/// A particle velocity whose predicted area, 5 s ahead, may lie anywhere
/// from on the host to straddling the edge of its radio disk.
geom::Vec2 random_velocity(rng::Rng& rng) {
  return geom::Vec2::from_angle(rng.uniform(-3.14159, 3.14159)) * rng.uniform(0.0, 5.5);
}

/// Rounds from random active hosts, each against the brute-force
/// recorders, with one node in seven asleep.
void expect_rounds_match_brute_force(wsn::Network& net, std::uint64_t seed) {
  for (wsn::NodeId id = 0; id < net.size(); ++id) {
    if (id % 7 == 2) {
      net.set_power(id, wsn::PowerState::kAsleep);
    }
  }
  rng::Rng rng(seed);
  std::size_t recorded = 0;
  for (std::uint64_t i = 0; i < 80; ++i) {
    const auto host = static_cast<wsn::NodeId>(rng.uniform_index(net.size()));
    if (!net.is_active(host)) {
      continue;
    }
    expect_round_matches_brute_force(net, host, random_velocity(rng), seed + i, recorded);
  }
  EXPECT_GT(recorded, 20u);
}

TEST(Propagation, RoundMatchesBruteForceUnderBelievedPositions) {
  // One route for every deployment: a round scans the smaller of the
  // predicted area grown by the largest believed-vs-true displacement and
  // the host's radio disk. Localized positions whose largest displacement
  // is below r_c - r_s take the first; larger ones, and a NaN believed
  // position, the second. Either way the recorders are the host's radio
  // neighbours in the predicted area, in the grid's order.
  const geom::Aabb field = geom::Aabb::square(200.0);
  const double rs = paper_config().sensing_radius;
  const double rc = paper_config().comm_radius;
  auto localized = [&](double density, std::uint64_t seed, double sigma) {
    rng::Rng rng(seed);
    wsn::Network net(wsn::deploy_uniform_random(
                         wsn::node_count_for_density(density, field), field, rng),
                     paper_config());
    wsn::LocalizationConfig config;
    config.range_sigma_m = sigma;
    net.set_believed_positions(wsn::localize(net, config, rng).positions);
    return net;
  };
  {
    SCOPED_TRACE("prediction disk");
    wsn::Network net = localized(20.0, 1, 0.5);
    ASSERT_GT(net.max_believed_displacement(), 0.0);
    ASSERT_LT((rs + net.max_believed_displacement()) * (1.0 + 1e-9), rc);
    expect_rounds_match_brute_force(net, 11);
  }
  {
    SCOPED_TRACE("radio disk");
    wsn::Network net = localized(10.0, 2, 2.0);
    ASSERT_GT(net.max_believed_displacement(), rc - rs);
    ASSERT_TRUE(std::isfinite(net.max_believed_displacement()));
    expect_rounds_match_brute_force(net, 12);
  }
  {
    SCOPED_TRACE("NaN believed position");
    wsn::Network net = localized(20.0, 3, 0.5);
    std::vector<geom::Vec2> believed;
    for (wsn::NodeId id = 0; id < net.size(); ++id) {
      believed.push_back(net.position(id));
    }
    // An awake node in the middle of the field (expect_rounds_match_brute_force
    // puts ids 2 mod 7 to sleep).
    std::vector<wsn::NodeId> middle;
    net.nodes_within({100.0, 100.0}, 10.0, middle);
    const auto lost = std::find_if(middle.begin(), middle.end(),
                                   [](wsn::NodeId id) { return id % 7 != 2; });
    ASSERT_NE(lost, middle.end());
    const wsn::NodeId nan_node = *lost;
    believed[nan_node] = {std::numeric_limits<double>::quiet_NaN(), 100.0};
    net.set_believed_positions(std::move(believed));
    ASSERT_EQ(net.max_believed_displacement(), std::numeric_limits<double>::infinity());
    expect_rounds_match_brute_force(net, 13);
    // Every host within r_c of the NaN node visits it.
    rng::Rng rng(14);
    std::size_t recorded = 0;
    std::vector<wsn::NodeId> around;
    net.active_nodes_within(net.true_position(nan_node), rc, around);
    for (const wsn::NodeId host : around) {
      if (host != nan_node) {
        expect_round_matches_brute_force(net, host, random_velocity(rng), 14 + host,
                                         recorded);
      }
    }
    EXPECT_GT(recorded, 0u);
  }
}

/// The round as the paper states it, one copy at a time: a host's
/// recorders come from a scan of its whole radio disk (every active node
/// within r_c of its true position, in the grid's order), each copy draws
/// its own sample_polar() batch of one, and the division and the combine
/// run recorder by recorder. The oracle the batched round must match bit
/// for bit.
void reference_round(const ParticleStore& store, const wsn::Network& net, wsn::Radio& radio,
                     const tracking::RandomTurnMotionModel& motion, rng::Rng& rng,
                     PropagationOutcome& out) {
  const double rs = net.config().sensing_radius;
  const double rc = net.config().comm_radius;
  const tracking::LinearProbabilityModel lin_prob(rs);
  const double record_gate_sq = rs * rs * (1.0 + 1e-12);
  const std::size_t payload = radio.payloads().particle + radio.payloads().weight;
  support::NeumaierSum lost;
  out.reset();
  for (const wsn::NodeId host : store.sorted_hosts()) {
    const NodeParticle& particle = *store.find(host);
    if (!net.is_active(host)) {
      ++out.lost_particles;
      lost.add(particle.weight);
      continue;
    }
    const geom::Vec2 host_position = net.position(host);
    const geom::Vec2 host_true = net.true_position(host);
    const geom::Vec2 predicted = host_position + particle.velocity * motion.dt();
    radio.broadcast(host, wsn::MessageKind::kParticle, payload);
    ++out.num_broadcasts;
    out.global.add(particle.weight, host_position, particle.velocity);
    std::vector<wsn::NodeId> recorders;
    std::vector<double> probabilities;
    double probability_sum = 0.0;
    net.visit_active_within(host_true, rc, [&](wsn::NodeId r, geom::Vec2 at, geom::Vec2 b) {
      const double dxt = at.x - host_true.x;
      const double dyt = at.y - host_true.y;
      const double dxp = b.x - predicted.x;
      const double dyp = b.y - predicted.y;
      const double d2p = dxp * dxp + dyp * dyp;
      if (r == host || dxt * dxt + dyt * dyt > rc * rc || !(d2p <= record_gate_sq)) {
        return;
      }
      const double p = lin_prob.probability(std::sqrt(d2p));
      if (p > 0.0) {
        recorders.push_back(r);
        probabilities.push_back(p);
        probability_sum += p;
      }
    });
    if (recorders.empty()) {
      const wsn::NodeId nearest = net.nearest_comm_neighbour<geom::distance_squared>(
          host, predicted, std::numeric_limits<double>::infinity());
      if (nearest == wsn::kInvalidNodeId) {
        ++out.lost_particles;
        lost.add(particle.weight);
        continue;
      }
      recorders.push_back(nearest);
      probabilities.push_back(1.0);
      probability_sum = 1.0;
    }
    for (std::size_t i = 0; i < recorders.size(); ++i) {
      const double weight = particle.weight * probabilities[i] / probability_sum;
      double heading = 0.0;
      double speed = 0.0;
      motion.sample_polar(particle.velocity.angle(), particle.velocity.norm(), rng,
                          {&heading, 1}, {&speed, 1});
      const geom::Vec2 hop = net.position(recorders[i]) - host_position;
      const double d2 = hop.x * hop.x + hop.y * hop.y;
      geom::Vec2 velocity;
      if (d2 > 1e-12) {
        const double scale = speed / std::sqrt(d2);
        velocity = {hop.x * scale, hop.y * scale};
      } else {
        velocity = geom::Vec2::from_angle(heading) * speed;
      }
      out.next.add(recorders[i], velocity, weight);
    }
  }
  out.lost_weight = lost.value();
}

/// Expect two rounds over the same input to agree bit for bit: the recorded
/// particles in order, the overheard aggregate, the counters, the radios'
/// CommStats and the next draw of their generators.
void expect_identical_rounds(const PropagationOutcome& a, const PropagationOutcome& b,
                             wsn::Radio& radio_a, wsn::Radio& radio_b, rng::Rng& rng_a,
                             rng::Rng& rng_b) {
  ASSERT_EQ(a.next.size(), b.next.size());
  for (std::size_t i = 0; i < a.next.size(); ++i) {
    const NodeParticle& pa = a.next.particles()[i];
    const NodeParticle& pb = b.next.particles()[i];
    EXPECT_EQ(pa.host, pb.host) << "particle " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pa.weight), std::bit_cast<std::uint64_t>(pb.weight))
        << "particle " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pa.velocity.x),
              std::bit_cast<std::uint64_t>(pb.velocity.x))
        << "particle " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(pa.velocity.y),
              std::bit_cast<std::uint64_t>(pb.velocity.y))
        << "particle " << i;
  }
  EXPECT_EQ(a.global.total_weight, b.global.total_weight);
  EXPECT_EQ(a.global.weighted_position.x, b.global.weighted_position.x);
  EXPECT_EQ(a.global.weighted_position.y, b.global.weighted_position.y);
  EXPECT_EQ(a.global.weighted_velocity.x, b.global.weighted_velocity.x);
  EXPECT_EQ(a.global.weighted_velocity.y, b.global.weighted_velocity.y);
  EXPECT_EQ(a.global.weighted_speed, b.global.weighted_speed);
  EXPECT_EQ(a.global.particles_heard, b.global.particles_heard);
  EXPECT_EQ(a.num_broadcasts, b.num_broadcasts);
  EXPECT_EQ(a.lost_particles, b.lost_particles);
  EXPECT_EQ(a.lost_weight, b.lost_weight);
  for (std::size_t k = 0; k < wsn::kNumMessageKinds; ++k) {
    const auto kind = static_cast<wsn::MessageKind>(k);
    EXPECT_EQ(radio_a.stats().messages(kind), radio_b.stats().messages(kind));
    EXPECT_EQ(radio_a.stats().bytes(kind), radio_b.stats().bytes(kind));
    EXPECT_EQ(radio_a.stats().receptions(kind), radio_b.stats().receptions(kind));
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rng_a.gaussian()),
            std::bit_cast<std::uint64_t>(rng_b.gaussian()));
  EXPECT_EQ(rng_a.uniform(), rng_b.uniform());
}

TEST(Propagation, DisplacedNodeRoundMatchesCommDiskScan) {
  // One node believes itself 120 m from where it is, and a second one 15 m;
  // every other believed position is exact. The round skips a radio-disk
  // cell only when its box lies farther than r_s plus its own nodes' largest
  // displacement from the predicted position, so a displaced node widens
  // the scan of its own cell only, yet every host must record exactly what
  // a scan of its whole radio disk finds: the same recorders in the same
  // order, weights, velocities, aggregate, CommStats and next draw. Hosts
  // sit around both displaced nodes' true and believed positions, some
  // aimed at the believed ones, and elsewhere; a few bystanders sleep, and
  // four nodes sit exactly on a host (co-located recorders keep their
  // sampled heading). The 120 m node can only record alone (no other radio
  // neighbour of its hosts lies within r_s of its believed position); the
  // 15 m one records among others, where a scan that ignored its
  // displacement would miss it.
  const geom::Aabb field = geom::Aabb::square(200.0);
  for (const double density : {10.0, 40.0}) {
    SCOPED_TRACE(::testing::Message() << "density " << density);
    rng::Rng setup(91);
    auto positions = wsn::deploy_uniform_random(
        wsn::node_count_for_density(density, field), field, setup);
    std::vector<wsn::NodeId> near_start;
    {
      wsn::Network probe(positions, paper_config());
      probe.nodes_within({40.0, 100.0}, 6.0, near_start);
    }
    std::vector<wsn::NodeId> near_second;
    {
      wsn::Network probe(positions, paper_config());
      probe.nodes_within({150.0, 60.0}, 6.0, near_second);
    }
    ASSERT_GE(near_start.size(), 5u);
    ASSERT_FALSE(near_second.empty());
    const wsn::NodeId displaced = near_start[0];
    const wsn::NodeId second = near_second[0];
    // Co-located nodes: four more nodes moved onto hosts' positions.
    for (std::size_t k = 1; k < 5; ++k) {
      positions[near_start[k]] = positions[near_start[k - 1]];
    }
    wsn::Network net(positions, paper_config());
    std::vector<geom::Vec2> believed = positions;
    believed[displaced] = positions[displaced] + geom::Vec2{120.0, 3.0};
    believed[second] = positions[second] + geom::Vec2{-12.0, 9.0};
    net.set_believed_positions(believed);
    ASSERT_GE(net.max_believed_displacement(), 100.0);

    ParticleStore store;
    std::vector<wsn::NodeId> ids;
    for (const geom::Vec2 center : {positions[displaced], believed[displaced],
                                    positions[second], believed[second],
                                    geom::Vec2{100.0, 40.0}}) {
      net.nodes_within(center, 14.0, ids);
      for (const wsn::NodeId id : ids) {
        if (!store.contains(id)) {
          store.add(id, {setup.uniform(-3.0, 3.0), setup.uniform(-3.0, 3.0)},
                    setup.uniform(0.1, 2.0));
        }
      }
    }
    // Particles pointed at each displaced node's believed position, from
    // hosts within r_c of its true one.
    for (const wsn::NodeId target : {displaced, second}) {
      net.nodes_within(positions[target], 25.0, ids);
      for (const wsn::NodeId id : ids) {
        if (id != target && !store.contains(id)) {
          store.add(id, (believed[target] - positions[id]) / 5.0, 0.7);
        }
      }
    }
    net.nodes_within({40.0, 100.0}, 30.0, ids);
    for (const wsn::NodeId id : ids) {
      if (id % 11 == 3 && id != displaced) {
        net.set_power(id, wsn::PowerState::kAsleep);
      }
    }
    const tracking::RandomTurnMotionModel motion = tracking::make_motion_model(5.0);

    wsn::Radio batched_radio(net, wsn::PayloadSizes{});
    rng::Rng batched_rng(5);
    Round batched;
    batched.run(store, net, batched_radio, motion, batched_rng);

    wsn::Radio reference_radio(net, wsn::PayloadSizes{});
    rng::Rng reference_rng(5);
    PropagationOutcome reference;
    reference_round(store, net, reference_radio, motion, reference_rng, reference);

    EXPECT_GT(batched.outcome.next.size(), 50u);
    EXPECT_TRUE(batched.outcome.next.contains(displaced)) << "nothing recorded on it";
    EXPECT_TRUE(batched.outcome.next.contains(second)) << "nothing recorded on it";
    expect_identical_rounds(batched.outcome, reference, batched_radio, reference_radio,
                            batched_rng, reference_rng);
  }
}

}  // namespace
}  // namespace cdpf::core
