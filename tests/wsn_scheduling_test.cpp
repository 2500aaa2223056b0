// Unit tests for duty cycling, TDSS proactive wake-up and failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "random/rng.hpp"
#include "support/check.hpp"
#include "wsn/deployment.hpp"
#include "wsn/duty_cycle.hpp"
#include "wsn/failure.hpp"
#include "wsn/network.hpp"
#include "wsn/radio.hpp"

namespace cdpf::wsn {
namespace {

NetworkConfig config100() {
  return NetworkConfig{geom::Aabb::square(100.0), 10.0, 30.0};
}

TEST(DutyCycle, AwakeFractionIsRespected) {
  const DutyCycleSchedule schedule(10.0, 0.3);
  // Over one full period each node is awake exactly 30% of the time.
  for (NodeId id = 0; id < 20; ++id) {
    int awake = 0;
    const int samples = 1000;
    for (int i = 0; i < samples; ++i) {
      awake += schedule.is_awake(id, 10.0 * i / samples);
    }
    EXPECT_NEAR(awake / static_cast<double>(samples), 0.3, 0.01) << "node " << id;
  }
}

TEST(DutyCycle, DeterministicPhasesAreAnticipatable) {
  // CDPF-NE's prerequisite (§V-D): the sleep pattern must be predictable.
  const DutyCycleSchedule a(10.0, 0.5), b(10.0, 0.5);
  for (NodeId id = 0; id < 50; ++id) {
    EXPECT_DOUBLE_EQ(a.phase(id), b.phase(id));
    for (double t = 0.0; t < 20.0; t += 0.7) {
      EXPECT_EQ(a.is_awake(id, t), b.is_awake(id, t));
    }
  }
}

TEST(DutyCycle, RandomSeedChangesPhases) {
  const DutyCycleSchedule det(10.0, 0.5, 0);
  const DutyCycleSchedule rnd(10.0, 0.5, 12345);
  int differing = 0;
  for (NodeId id = 0; id < 100; ++id) {
    differing += (std::abs(det.phase(id) - rnd.phase(id)) > 1e-9);
  }
  EXPECT_GT(differing, 90);
}

TEST(DutyCycle, ExtremeFractions) {
  const DutyCycleSchedule always(10.0, 1.0);
  const DutyCycleSchedule never(10.0, 0.0);
  EXPECT_TRUE(always.is_awake(3, 7.7));
  EXPECT_FALSE(never.is_awake(3, 7.7));
  EXPECT_THROW(DutyCycleSchedule(0.0, 0.5), Error);
  EXPECT_THROW(DutyCycleSchedule(1.0, 1.5), Error);
}

// is_awake against the formula it computes without libm,
// std::fmod(t + phase, period) < fraction * period. Besides times drawn
// anywhere, the draws crowd the places a remainder off by an ulp or by a
// period would show: t at a multiple of the period, and t + phase at a
// multiple of the period (the remainder wraps from ~period to 0) or at the
// awake threshold, each with its two nextafter neighbours.
TEST(DutyCycle, IsAwakeMatchesFmodFormulaBitForBit) {
  rng::Rng rng(31);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::size_t draws = 0;
  std::size_t mismatches = 0;
  const auto check = [&](const DutyCycleSchedule& schedule, NodeId node, double t) {
    for (const double probe : {std::nextafter(t, -kInf), t, std::nextafter(t, kInf)}) {
      if (!(probe >= 0.0 && probe <= DutyCycleSchedule::kMaxTime)) {
        continue;
      }
      const double period = schedule.period();
      const bool expected = std::fmod(probe + schedule.phase(node), period) <
                            schedule.awake_fraction() * period;
      ++draws;
      if (schedule.is_awake(node, probe) != expected && mismatches++ == 0) {
        ADD_FAILURE() << "period " << period << " node " << node << " t " << probe;
      }
    }
  };
  for (const double period : {1.0, 3.0, 7.0, 10.0, 60.0, 86400.0}) {
    for (const double fraction : {0.1, 0.5, 0.9}) {
      const DutyCycleSchedule schedule(period, fraction, rng.uniform_index(1u << 30) | 1u);
      for (int i = 0; i < 20000; ++i) {
        const auto node = static_cast<NodeId>(rng.uniform_index(1u << 20));
        // Whole periods up to 2^20 of them, or up to kMaxTime.
        const double cycles = static_cast<double>(rng.uniform_index(
            i % 2 == 0 ? std::uint64_t{1} << 20
                       : static_cast<std::uint64_t>(DutyCycleSchedule::kMaxTime / period)));
        const double phase = schedule.phase(node);
        check(schedule, node, rng.uniform(0.0, 1e6));
        check(schedule, node, cycles * period);
        check(schedule, node, cycles * period - phase);
        check(schedule, node, cycles * period + fraction * period - phase);
      }
    }
  }
  EXPECT_GE(draws, 1000000u);
  EXPECT_EQ(mismatches, 0u);
}

TEST(DutyCycle, RejectsFractionalPeriodsAndNegativeTimes) {
  EXPECT_THROW(DutyCycleSchedule(2.5, 0.5), Error);
  EXPECT_THROW(DutyCycleSchedule(0.5, 0.5), Error);
  EXPECT_THROW(DutyCycleSchedule(2.0 * DutyCycleSchedule::kMaxPeriod, 0.5), Error);
  const DutyCycleSchedule schedule(10.0, 0.5);
  EXPECT_THROW((void)schedule.is_awake(0, -1.0), Error);
  EXPECT_THROW((void)schedule.is_awake(0, std::nextafter(0.0, -1.0)), Error);
  EXPECT_THROW((void)schedule.is_awake(0, std::numeric_limits<double>::quiet_NaN()), Error);
  EXPECT_THROW((void)schedule.is_awake(0, std::numeric_limits<double>::infinity()), Error);
  EXPECT_NO_THROW((void)schedule.is_awake(0, 0.0));
  EXPECT_NO_THROW((void)schedule.is_awake(0, DutyCycleSchedule::kMaxTime));
}

TEST(DutyCycle, ApplySetsPowerStates) {
  rng::Rng rng(8);
  const auto positions = deploy_uniform_random(200, geom::Aabb::square(100.0), rng);
  Network net(positions, config100());
  const DutyCycleSchedule schedule(10.0, 0.4);
  schedule.apply(net, 3.0);
  std::size_t awake = 0;
  for (const Node& n : net.nodes()) {
    awake += (n.power == PowerState::kAwake);
    EXPECT_EQ(n.power == PowerState::kAwake, schedule.is_awake(n.id, 3.0));
  }
  EXPECT_NEAR(static_cast<double>(awake) / 200.0, 0.4, 0.12);
}

TEST(DutyCycle, ApplySkipsDeadNodes) {
  const std::vector<geom::Vec2> positions{{50.0, 50.0}, {60.0, 50.0}};
  Network net(positions, config100());
  net.set_alive(0, false);
  const DutyCycleSchedule schedule(10.0, 1.0);
  schedule.apply(net, 0.0);
  EXPECT_FALSE(net.is_active(0));  // dead stays dead
}

TEST(Tdss, WakesSleepingNodesInPredictedArea) {
  rng::Rng rng(9);
  const auto positions = deploy_uniform_random(400, geom::Aabb::square(100.0), rng);
  Network net(positions, config100());
  // Everyone asleep.
  for (const Node& n : net.nodes()) {
    net.set_power(n.id, PowerState::kAsleep);
  }
  TdssScheduler tdss(net, 15.0);
  const geom::Vec2 predicted{50.0, 50.0};
  const std::size_t woken = tdss.wake_predicted_area(predicted);
  EXPECT_GT(woken, 0u);
  std::vector<NodeId> area;
  net.nodes_within(predicted, 15.0, area);
  for (const NodeId id : area) {
    EXPECT_TRUE(net.is_active(id));
  }
  // Nodes far away stay asleep.
  std::size_t awake_total = 0;
  for (const Node& n : net.nodes()) {
    awake_total += n.active();
  }
  EXPECT_EQ(awake_total, woken);
  // A second call is idempotent.
  EXPECT_EQ(tdss.wake_predicted_area(predicted), 0u);
}

TEST(Tdss, BeaconChargedWhenRadioProvided) {
  const std::vector<geom::Vec2> positions{{50.0, 50.0}, {55.0, 50.0}, {60.0, 50.0}};
  Network net(positions, config100());
  Radio radio(net, PayloadSizes{});
  net.set_power(1, PowerState::kAsleep);
  net.set_power(2, PowerState::kAsleep);
  TdssScheduler tdss(net, 20.0);
  EXPECT_EQ(tdss.wake_predicted_area({55.0, 50.0}, &radio), 2u);
  EXPECT_EQ(radio.stats().messages(MessageKind::kControl), 1u);
}

TEST(Failure, FailFractionKillsApproximately) {
  rng::Rng rng(10);
  const auto positions = deploy_uniform_random(1000, geom::Aabb::square(100.0), rng);
  Network net(positions, config100());
  FailureInjector injector(net);
  EXPECT_EQ(injector.alive_count(), 1000u);
  const std::size_t killed = injector.fail_fraction(0.2, rng);
  EXPECT_NEAR(static_cast<double>(killed), 200.0, 50.0);
  EXPECT_EQ(injector.alive_count(), 1000u - killed);
  // Killing everything.
  injector.fail_fraction(1.0, rng);
  EXPECT_EQ(injector.alive_count(), 0u);
}

TEST(Failure, HazardRateMatchesExponential) {
  rng::Rng rng(11);
  const auto positions = deploy_uniform_random(2000, geom::Aabb::square(100.0), rng);
  Network net(positions, config100());
  FailureInjector injector(net);
  // rate*dt = 0.1 => p = 1 - exp(-0.1) ~ 0.0952.
  const std::size_t killed = injector.step_hazard(0.02, 5.0, rng);
  EXPECT_NEAR(static_cast<double>(killed), 2000.0 * 0.0952, 60.0);
  EXPECT_THROW(injector.step_hazard(-1.0, 1.0, rng), Error);
}

}  // namespace
}  // namespace cdpf::wsn
