// Unit + statistical tests for the tracking substrate: motion models,
// ground-truth trajectories, measurement models and detection models.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/batch_kernels.hpp"
#include "geom/angles.hpp"
#include "random/rng.hpp"
#include "support/check.hpp"
#include "tracking/detection.hpp"
#include "tracking/measurement.hpp"
#include "tracking/motion_model.hpp"
#include "tracking/trajectory.hpp"

namespace cdpf::tracking {
namespace {

TEST(ConstantVelocityModel, MatricesMatchPaperEquation5) {
  const ConstantVelocityModel m(5.0, 0.05, 0.05);
  const auto& phi = m.phi();
  EXPECT_DOUBLE_EQ(phi(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(phi(1, 3), 5.0);
  EXPECT_DOUBLE_EQ(phi(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(phi(0, 1), 0.0);
  const auto& gamma = m.gamma();
  EXPECT_DOUBLE_EQ(gamma(0, 0), 12.5);  // dt^2 / 2
  EXPECT_DOUBLE_EQ(gamma(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(gamma(0, 1), 0.0);
}

TEST(ConstantVelocityModel, ProcessNoiseCovarianceIsConsistent) {
  const ConstantVelocityModel m(2.0, 0.1, 0.2);
  const auto& q = m.process_noise_covariance();
  // Q = Gamma diag(sx^2, sy^2) Gamma^T; spot-check entries.
  EXPECT_NEAR(q(2, 2), 0.01, 1e-15);                    // sx^2
  EXPECT_NEAR(q(3, 3), 0.04, 1e-15);                    // sy^2
  EXPECT_NEAR(q(0, 0), 2.0 * 2.0 / 4.0 * 0.01 * 4.0, 1e-12);  // (dt^2/2)^2 sx^2
  EXPECT_NEAR(q(0, 2), 2.0 * 0.01, 1e-15);              // (dt^2/2) sx^2
  EXPECT_NEAR(q(0, 1), 0.0, 1e-15);
}

TEST(ConstantVelocityModel, PropagateIsStraightLine) {
  const ConstantVelocityModel m(2.0, 0.05, 0.05);
  const TargetState s{{1.0, 2.0}, {3.0, -1.0}};
  const TargetState next = m.propagate(s);
  EXPECT_EQ(next.position, geom::Vec2(7.0, 0.0));
  EXPECT_EQ(next.velocity, s.velocity);
}

TEST(ConstantVelocityModel, SampleMomentsMatchModel) {
  const ConstantVelocityModel m(1.0, 0.3, 0.3);
  rng::Rng rng(101);
  const TargetState s{{0.0, 0.0}, {1.0, 0.0}};
  double vx_sum = 0.0, vx_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const TargetState next = m.sample(s, rng);
    vx_sum += next.velocity.x;
    vx_sq += (next.velocity.x - 1.0) * (next.velocity.x - 1.0);
  }
  EXPECT_NEAR(vx_sum / n, 1.0, 0.01);
  EXPECT_NEAR(std::sqrt(vx_sq / n), 0.3, 0.01);
}

TEST(ConstantVelocityModel, TransitionDensityPositiveForSamples) {
  const ConstantVelocityModel m(1.0, 0.1, 0.1);
  rng::Rng rng(103);
  const TargetState s{{5.0, 5.0}, {1.0, 2.0}};
  for (int i = 0; i < 100; ++i) {
    const TargetState next = m.sample(s, rng);
    EXPECT_GT(m.transition_density(s, next), 0.0);
  }
  // An unreachable next state (wrong position for its velocity) has zero density.
  TargetState bogus = m.propagate(s);
  bogus.position.x += 1.0;
  EXPECT_DOUBLE_EQ(m.transition_density(s, bogus), 0.0);
}

TEST(RandomTurnModel, PreservesSpeedWithoutNoise) {
  const RandomTurnMotionModel m(5.0, 1.0, geom::deg_to_rad(15.0), 0.0);
  rng::Rng rng(107);
  const TargetState s{{0.0, 0.0}, {3.0, 0.0}};
  for (int i = 0; i < 100; ++i) {
    const TargetState next = m.sample(s, rng);
    EXPECT_NEAR(next.speed(), 3.0, 1e-12);
  }
}

TEST(RandomTurnModel, HeadingChangeBoundedBySubstepTurns) {
  const double max_turn = geom::deg_to_rad(15.0);
  const RandomTurnMotionModel m(5.0, 1.0, max_turn, 0.0);
  rng::Rng rng(109);
  const TargetState s{{0.0, 0.0}, {3.0, 0.0}};
  for (int i = 0; i < 1000; ++i) {
    const TargetState next = m.sample(s, rng);
    EXPECT_LE(std::abs(geom::angle_difference(next.heading(), 0.0)),
              5.0 * max_turn + 1e-12);
  }
}

TEST(RandomTurnModel, PropagateDeterministic) {
  const RandomTurnMotionModel m(5.0, 1.0, 0.3, 0.02);
  const TargetState s{{1.0, 1.0}, {2.0, 0.0}};
  EXPECT_EQ(m.propagate(s).position, geom::Vec2(11.0, 1.0));
}

TEST(RandomTurnModel, InvalidConfigThrows) {
  EXPECT_THROW(RandomTurnMotionModel(0.0, 1.0, 0.1, 0.0), Error);
  EXPECT_THROW(RandomTurnMotionModel(1.0, 1.0, -0.1, 0.0), Error);
  EXPECT_THROW(RandomTurnMotionModel(0.4, 1.0, 0.1, 0.0), Error);  // < 1 substep
}

TEST(MotionModelFactory, BuildsConfiguredKind) {
  MotionModelConfig config;
  config.kind = MotionModelConfig::Kind::kConstantVelocity;
  const auto cv = make_motion_model(config, 2.0);
  EXPECT_NE(dynamic_cast<const ConstantVelocityModel*>(cv.get()), nullptr);
  config.kind = MotionModelConfig::Kind::kRandomTurn;
  const auto rt = make_motion_model(config, 5.0);
  EXPECT_NE(dynamic_cast<const RandomTurnMotionModel*>(rt.get()), nullptr);
  EXPECT_DOUBLE_EQ(rt->dt(), 5.0);
}

TEST(Trajectory, GeneratorReproducesPaperConfiguration) {
  RandomTurnConfig config;  // defaults are the paper's
  rng::Rng rng(113);
  const Trajectory traj = generate_random_turn_trajectory(config, rng);
  ASSERT_EQ(traj.size(), 51u);  // 50 steps + start
  EXPECT_EQ(traj.at_step(0).position, geom::Vec2(0.0, 100.0));
  EXPECT_DOUBLE_EQ(traj.duration(), 50.0);
  for (std::size_t k = 0; k < traj.size(); ++k) {
    EXPECT_NEAR(traj.at_step(k).speed(), 3.0, 1e-12) << "step " << k;
  }
}

TEST(Trajectory, TurnsBoundedByFifteenDegrees) {
  RandomTurnConfig config;
  config.steer_within.reset();  // pure random walk
  rng::Rng rng(127);
  const Trajectory traj = generate_random_turn_trajectory(config, rng);
  for (std::size_t k = 1; k + 1 < traj.size(); ++k) {
    const double turn = geom::angle_distance(traj.at_step(k + 1).heading(),
                                             traj.at_step(k).heading());
    EXPECT_LE(turn, config.max_turn_rad + 1e-12);
  }
}

TEST(Trajectory, SteeringKeepsTargetInsideBox) {
  RandomTurnConfig config;
  config.num_steps = 400;  // long run would surely escape without steering
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    rng::Rng rng(seed);
    const Trajectory traj = generate_random_turn_trajectory(config, rng);
    for (std::size_t k = 5; k < traj.size(); ++k) {
      // Steering is best-effort: with a +-15 deg/s turn limit at 3 m/s the
      // turn radius is ~11.5 m, so overshoot beyond the box is bounded by
      // it — which is exactly why the default margin (15 m) keeps the
      // target inside the 200 m field.
      const geom::Vec2 p = traj.at_step(k).position;
      // The invariant the trackers rely on: the target stays inside the
      // sensor field (the 15 m margin absorbs the worst-case overshoot).
      EXPECT_TRUE(geom::Aabb::square(200.0).contains(p)) << p.x << "," << p.y;
    }
  }
}

TEST(Trajectory, InterpolationMatchesEndpointsAndMidpoints) {
  std::vector<TargetState> states{{{0.0, 0.0}, {1.0, 0.0}}, {{2.0, 0.0}, {1.0, 0.0}}};
  const Trajectory traj(states, 2.0);
  EXPECT_EQ(traj.at_time(-1.0).position, geom::Vec2(0.0, 0.0));
  EXPECT_EQ(traj.at_time(5.0).position, geom::Vec2(2.0, 0.0));
  EXPECT_EQ(traj.at_time(1.0).position, geom::Vec2(1.0, 0.0));
}

TEST(Trajectory, InvalidConstructionThrows) {
  EXPECT_THROW(Trajectory({}, 1.0), Error);
  EXPECT_THROW(Trajectory({TargetState{}}, 0.0), Error);
}

TEST(BearingModel, IdealBearingGeometry) {
  const BearingMeasurementModel m(0.05);
  EXPECT_NEAR(m.ideal({0.0, 0.0}, {1.0, 1.0}), geom::kPi / 4.0, 1e-12);
  EXPECT_NEAR(m.ideal({2.0, 0.0}, {1.0, 0.0}), geom::kPi, 1e-12);
}

TEST(BearingModel, LikelihoodPeaksAtTruth) {
  const BearingMeasurementModel m(0.05);
  const geom::Vec2 sensor{0.0, 0.0};
  const geom::Vec2 truth{10.0, 0.0};
  const double z = m.ideal(sensor, truth);
  EXPECT_GT(m.likelihood(z, sensor, truth), m.likelihood(z, sensor, {10.0, 1.0}));
  EXPECT_GT(m.log_likelihood(z, sensor, truth),
            m.log_likelihood(z, sensor, {10.0, 0.5}));
}

TEST(BearingModel, ResidualWrapsAcrossSeam) {
  const BearingMeasurementModel m(0.1);
  const geom::Vec2 sensor{0.0, 0.0};
  // Target just below the -x axis: bearing ~ -pi; measurement ~ +pi.
  const double z = geom::kPi - 0.01;
  const geom::Vec2 target{-10.0, -0.05};
  // Without wrapping the residual would be ~2*pi and the density ~0.
  EXPECT_GT(m.log_likelihood(z, sensor, target), -10.0);
}

TEST(BearingModel, MeasurementNoiseStatistics) {
  const BearingMeasurementModel m(0.05);
  rng::Rng rng(131);
  const geom::Vec2 sensor{0.0, 0.0}, target{5.0, 5.0};
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double r = geom::angle_difference(m.measure(sensor, target, rng),
                                            m.ideal(sensor, target));
    sum += r;
    sum_sq += r * r;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.002);
  EXPECT_NEAR(std::sqrt(sum_sq / n), 0.05, 0.002);
}

TEST(BearingModel, InflatedSigmaFlattensRelativePenalty) {
  // The trackers' shared kernel inflates the bearing noise by the spatial
  // resolution delta / d. Inflation must shrink the log-likelihood GAP
  // between a matching and an off-target hypothesis (the absolute density
  // also drops at the peak, which is irrelevant after normalization).
  const BearingMeasurementModel m(0.05);
  const geom::Vec2 sensor{0.0, 0.0}, truth{10.0, 0.0}, off{10.0, 1.0};
  const double z = m.ideal(sensor, truth);
  const auto kernel = [&](geom::Vec2 p, const core::BearingBatchParams& params) {
    const double dx = p.x - sensor.x;
    const double dy = p.y - sensor.y;
    return core::bearing_pair_log_likelihood(z, dx, dy, dx * dx + dy * dy, params);
  };
  // Without inflation the kernel is the measurement model's density.
  const core::BearingBatchParams sharp(0.05, 0.0);
  EXPECT_NEAR(kernel(off, sharp), m.log_likelihood(z, sensor, off), 1e-12);
  const double sharp_gap = kernel(truth, sharp) - kernel(off, sharp);
  const core::BearingBatchParams inflated(0.05, 5.0);  // delta / d = 0.5 rad at 10 m
  const double flat_gap = kernel(truth, inflated) - kernel(off, inflated);
  EXPECT_GT(sharp_gap, flat_gap);
  EXPECT_GT(flat_gap, 0.0);  // still prefers the truth
  EXPECT_THROW(core::BearingBatchParams(0.0, 5.0), Error);
}

// BearingEvidence scores the records through the same pair kernel the
// tests above pin; these cases pin the two sums and the host factor's clamp
// and earshot floor.
double pair_log_likelihood(const core::BearingEvidence& evidence, geom::Vec2 p,
                           const core::BearingBatchParams& params, double gate_sq) {
  double sum = 0.0;
  for (const BearingObservation& r : evidence.records()) {
    const double dx = p.x - r.sensor.x;
    const double dy = p.y - r.sensor.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 <= gate_sq) {
      sum += core::bearing_pair_log_likelihood(r.bearing_rad, dx, dy, d2, params);
    }
  }
  return sum;
}

TEST(BearingEvidence, LogLikelihoodSumsEveryRecordWithoutGate) {
  const BearingMeasurementModel m(0.05);
  const geom::Vec2 target{5.0, 5.0};
  core::BearingEvidence evidence(0.05, 0.5, /*comm_radius=*/10.0);
  for (const geom::Vec2 sensor : {geom::Vec2{0.0, 0.0}, geom::Vec2{10.0, 0.0},
                                  geom::Vec2{40.0, 0.0}}) {
    evidence.add(sensor, m.ideal(sensor, target) + 0.01);
  }
  const core::BearingBatchParams params(0.05, 0.5);
  const geom::Vec2 p{4.0, 6.0};
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(evidence.log_likelihood(p), pair_log_likelihood(evidence, p, params, inf));
  // The sensor at (40, 0) is beyond the 10 m gate and still counts.
  EXPECT_NE(evidence.log_likelihood(p), pair_log_likelihood(evidence, p, params, 100.0));
  EXPECT_EQ(evidence.centroid(), geom::Vec2(50.0 / 3.0, 0.0));
}

TEST(BearingEvidence, HostFactorIsHeardSumRelativeToCentroid) {
  const BearingMeasurementModel m(0.05);
  const geom::Vec2 target{5.0, 5.0};
  core::BearingEvidence evidence(0.05, 0.5, /*comm_radius=*/20.0);
  for (const geom::Vec2 sensor : {geom::Vec2{0.0, 0.0}, geom::Vec2{10.0, 0.0},
                                  geom::Vec2{0.0, 10.0}, geom::Vec2{40.0, 0.0}}) {
    evidence.add(sensor, m.ideal(sensor, target));
  }
  const core::BearingBatchParams params(0.05, 0.5);
  const double inf = std::numeric_limits<double>::infinity();
  const geom::Vec2 host{4.0, 6.0};  // hears all but the sensor at (40, 0)
  const double relative = pair_log_likelihood(evidence, host, params, 400.0) -
                          pair_log_likelihood(evidence, evidence.centroid(), params, inf);
  ASSERT_LT(std::abs(relative), core::kMaxLogWeightFactor);  // unsaturated
  EXPECT_DOUBLE_EQ(evidence.host_factor(host), std::exp(relative));
  // Refilling the evidence refreshes the cached centroid reference.
  evidence.clear();
  evidence.add({0.0, 0.0}, m.ideal({0.0, 0.0}, target));
  EXPECT_DOUBLE_EQ(evidence.host_factor(host),
                   std::exp(pair_log_likelihood(evidence, host, params, inf) -
                            pair_log_likelihood(evidence, {0.0, 0.0}, params, inf)));
}

TEST(BearingEvidence, HostOutOfEarshotGetsTheFloor) {
  core::BearingEvidence evidence(0.05, 0.5, /*comm_radius=*/20.0);
  evidence.add({0.0, 0.0}, 0.3);
  evidence.add({10.0, 0.0}, 2.0);
  EXPECT_EQ(evidence.host_factor({100.0, 100.0}), std::exp(-core::kMaxLogWeightFactor));
}

TEST(BearingEvidence, HostFactorClampSaturatesAtBothEnds) {
  const BearingMeasurementModel m(0.001);
  const double inf = std::numeric_limits<double>::infinity();
  const core::BearingBatchParams params(0.001, 0.0);
  // Upper end: every sensor sits on one side of the target, so the sender
  // centroid lies behind them and contradicts every bearing, while a host
  // on the target matches them all.
  const geom::Vec2 target{0.0, 0.0};
  core::BearingEvidence one_sided(0.001, 0.0, /*comm_radius=*/50.0);
  for (const geom::Vec2 sensor : {geom::Vec2{10.0, 0.0}, geom::Vec2{10.0, 5.0},
                                  geom::Vec2{10.0, -5.0}, geom::Vec2{15.0, 0.0}}) {
    one_sided.add(sensor, m.ideal(sensor, target));
  }
  ASSERT_GT(pair_log_likelihood(one_sided, target, params, inf) -
                pair_log_likelihood(one_sided, one_sided.centroid(), params, inf),
            core::kMaxLogWeightFactor);
  EXPECT_EQ(one_sided.host_factor(target), std::exp(core::kMaxLogWeightFactor));
  // Lower end: sensors surround the target, so the centroid matches every
  // bearing, while a heard host off the target contradicts them.
  core::BearingEvidence surrounding(0.001, 0.0, /*comm_radius=*/50.0);
  for (const geom::Vec2 sensor : {geom::Vec2{10.0, 0.0}, geom::Vec2{-10.0, 0.0},
                                  geom::Vec2{0.0, 10.0}, geom::Vec2{0.0, -10.0}}) {
    surrounding.add(sensor, m.ideal(sensor, target));
  }
  const geom::Vec2 off{5.0, 5.0};
  ASSERT_LT(pair_log_likelihood(surrounding, off, params, inf) -
                pair_log_likelihood(surrounding, surrounding.centroid(), params, inf),
            -core::kMaxLogWeightFactor);
  EXPECT_EQ(surrounding.host_factor(off), std::exp(-core::kMaxLogWeightFactor));
}

TEST(RangeModel, LikelihoodAndMoments) {
  const RangeMeasurementModel m(0.5);
  const geom::Vec2 sensor{0.0, 0.0}, target{3.0, 4.0};
  EXPECT_DOUBLE_EQ(m.ideal(sensor, target), 5.0);
  EXPECT_GT(m.likelihood(5.0, sensor, target), m.likelihood(6.0, sensor, target));
  rng::Rng rng(137);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    sum += m.measure(sensor, target, rng);
  }
  EXPECT_NEAR(sum / 20000.0, 5.0, 0.02);
}

TEST(InstantDetection, DiskMembership) {
  const InstantDetectionModel m(10.0);
  EXPECT_TRUE(m.detects({0.0, 0.0}, {6.0, 8.0}));
  EXPECT_FALSE(m.detects({0.0, 0.0}, {6.0, 8.1}));
}

TEST(InstantDetection, SegmentCrossingDetected) {
  const InstantDetectionModel m(1.0);
  // The target passes through the sensing disk between samples.
  EXPECT_TRUE(m.detects_segment({0.0, 0.0}, {-5.0, 0.5}, {5.0, 0.5}));
  EXPECT_FALSE(m.detects_segment({0.0, 0.0}, {-5.0, 2.0}, {5.0, 2.0}));
  // Neither endpoint is inside, yet the path crosses.
  EXPECT_FALSE(m.detects({0.0, 0.0}, {-5.0, 0.5}));
}

TEST(LinearProbability, MatchesDefinition) {
  const LinearProbabilityModel m(10.0);
  EXPECT_DOUBLE_EQ(m.probability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(m.probability(5.0), 0.5);
  EXPECT_DOUBLE_EQ(m.probability(10.0), 0.0);
  EXPECT_DOUBLE_EQ(m.probability(15.0), 0.0);
  EXPECT_DOUBLE_EQ(m.probability({0.0, 0.0}, {0.0, 2.5}), 0.75);
  EXPECT_THROW(m.probability(-1.0), Error);
}

TEST(ProbabilisticDetection, ExponentialDecayInsideDisk) {
  const ProbabilisticDetectionModel m(10.0, 0.2);
  EXPECT_NEAR(m.detection_probability({0.0, 0.0}, {0.0, 0.0}), 1.0, 1e-12);
  EXPECT_NEAR(m.detection_probability({0.0, 0.0}, {5.0, 0.0}), std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(m.detection_probability({0.0, 0.0}, {11.0, 0.0}), 0.0);
  rng::Rng rng(139);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    hits += m.detects({0.0, 0.0}, {5.0, 0.0}, rng);
  }
  EXPECT_NEAR(hits / 20000.0, std::exp(-1.0), 0.01);
}

}  // namespace
}  // namespace cdpf::tracking
