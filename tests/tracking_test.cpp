// Unit + statistical tests for the tracking substrate: the motion model,
// ground-truth trajectories, the bearing measurement model and the linear
// probability model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <vector>

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

TEST(RandomTurnModel, PreservesSpeedWithoutNoise) {
  const RandomTurnMotionModel m(5.0, 1.0, 15.0 * geom::kPi / 180.0, 0.0);
  rng::Rng rng(107);
  const TargetState s{{0.0, 0.0}, {3.0, 0.0}};
  for (int i = 0; i < 100; ++i) {
    const TargetState next = m.sample(s, rng);
    EXPECT_NEAR(next.velocity.norm(), 3.0, 1e-12);
  }
}

TEST(RandomTurnModel, HeadingChangeBoundedBySubstepTurns) {
  const double max_turn = 15.0 * geom::kPi / 180.0;
  const RandomTurnMotionModel m(5.0, 1.0, max_turn, 0.0);
  rng::Rng rng(109);
  const TargetState s{{0.0, 0.0}, {3.0, 0.0}};
  for (int i = 0; i < 1000; ++i) {
    const TargetState next = m.sample(s, rng);
    EXPECT_LE(std::abs(geom::wrap_angle(next.velocity.angle())),
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

TEST(RandomTurnModel, SamplePolarMatchesSample) {
  // sample_polar() from the state's (angle(), norm()) must consume exactly
  // sample()'s RNG draws and land on its velocity bit for bit: CDPF's
  // division batch calls it in place of sample(), so any drift here moves
  // every CDPF output.
  rng::Rng states(137);
  for (const RandomTurnMotionModel& m :
       {make_motion_model(5.0), RandomTurnMotionModel(5.0, 5.0, 0.0, 0.0)}) {
    rng::Rng sample_rng(139);
    rng::Rng polar_rng(139);
    for (int i = 0; i < 2000; ++i) {
      TargetState state{{states.uniform(0.0, 200.0), states.uniform(0.0, 200.0)},
                        {states.uniform(-4.0, 4.0), states.uniform(-4.0, 4.0)}};
      if (i % 100 == 0) {
        state.velocity = {};  // standing still: heading atan2(0, 0)
      }
      const geom::Vec2 expected = m.sample(state, sample_rng).velocity;
      // A batch of one.
      double heading = 0.0;
      double speed = 0.0;
      m.sample_polar(state.velocity.angle(), state.velocity.norm(), polar_rng,
                     {&heading, 1}, {&speed, 1});
      const geom::Vec2 velocity = geom::Vec2::from_angle(heading) * speed;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(velocity.x),
                std::bit_cast<std::uint64_t>(expected.x))
          << "draw " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(velocity.y),
                std::bit_cast<std::uint64_t>(expected.y))
          << "draw " << i;
      ASSERT_NEAR(speed, expected.norm(), 1e-12 * (1.0 + speed)) << "draw " << i;
      // The streams stay in lockstep, cached Gaussian included.
      ASSERT_EQ(std::bit_cast<std::uint64_t>(polar_rng.gaussian()),
                std::bit_cast<std::uint64_t>(sample_rng.gaussian()))
          << "draw " << i;
      ASSERT_EQ(polar_rng.uniform(), sample_rng.uniform()) << "draw " << i;
    }
  }
}

TEST(RandomTurnModel, SamplePolarBatchMatchesSequentialSamples) {
  // A batch of n copies is n sample() calls from one state: copy c lands on
  // the c-th call's velocity bit for bit, and the streams stay in lockstep
  // after the batch, cached Gaussian included. The paper's model, a zero
  // speed-sigma one (its walk draws no normal) and a 600-substep one (a
  // copy spans several draw blocks); each entered with and without a
  // cached normal, over batch sizes that end on either half of a pair.
  const std::vector<RandomTurnMotionModel> models{
      make_motion_model(5.0), RandomTurnMotionModel(5.0, 1.0, 0.26, 0.0),
      RandomTurnMotionModel(600.0, 1.0, 0.26, 0.02)};
  for (std::size_t k = 0; k < models.size(); ++k) {
    const RandomTurnMotionModel& m = models[k];
    for (const bool cached : {false, true}) {
      for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                  std::size_t{7}, std::size_t{125}, std::size_t{300}}) {
        SCOPED_TRACE(::testing::Message() << "model " << k << " n " << n
                                          << (cached ? ", cached" : ""));
        rng::Rng batch_rng(311 + n);
        rng::Rng sample_rng(311 + n);
        if (cached) {
          ASSERT_EQ(batch_rng.gaussian(), sample_rng.gaussian());
        }
        const TargetState state{{50.0, 60.0}, {-1.3, 2.4}};
        std::vector<double> headings(n);
        std::vector<double> speeds(n);
        m.sample_polar(state.velocity.angle(), state.velocity.norm(), batch_rng, headings,
                       speeds);
        for (std::size_t c = 0; c < n; ++c) {
          const geom::Vec2 expected = m.sample(state, sample_rng).velocity;
          const geom::Vec2 velocity = geom::Vec2::from_angle(headings[c]) * speeds[c];
          ASSERT_EQ(std::bit_cast<std::uint64_t>(velocity.x),
                    std::bit_cast<std::uint64_t>(expected.x))
              << "copy " << c;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(velocity.y),
                    std::bit_cast<std::uint64_t>(expected.y))
              << "copy " << c;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(batch_rng.gaussian()),
                  std::bit_cast<std::uint64_t>(sample_rng.gaussian()));
        EXPECT_EQ(batch_rng.uniform(), sample_rng.uniform());
      }
    }
  }
  rng::Rng rng(1);
  std::vector<double> three(3);
  std::vector<double> two(2);
  EXPECT_THROW(make_motion_model(5.0).sample_polar(0.0, 1.0, rng, three, two), Error);
}

TEST(MotionModelFactory, BuildsConfiguredKind) {
  // The filters' proposal is the paper's ground-truth process: 1 s
  // substeps, turns within +-15 degrees, 2% speed sigma.
  const RandomTurnMotionModel model = make_motion_model(5.0);
  const RandomTurnMotionModel reference(5.0, 1.0, 15.0 * geom::kPi / 180.0, 0.02);
  EXPECT_DOUBLE_EQ(model.dt(), 5.0);
  rng::Rng model_rng(131);
  rng::Rng reference_rng(131);
  TargetState state{{10.0, 20.0}, {3.0, 0.0}};
  for (int i = 0; i < 20; ++i) {
    const TargetState next = model.sample(state, model_rng);
    const TargetState expected = reference.sample(state, reference_rng);
    ASSERT_EQ(next.position, expected.position) << "draw " << i;
    ASSERT_EQ(next.velocity, expected.velocity) << "draw " << i;
    state = next;
  }
}

TEST(Trajectory, GeneratorReproducesPaperConfiguration) {
  RandomTurnConfig config;  // defaults are the paper's
  rng::Rng rng(113);
  const Trajectory traj = generate_random_turn_trajectory(config, rng);
  ASSERT_EQ(traj.size(), 51u);  // 50 steps + start
  EXPECT_EQ(traj.at_step(0).position, geom::Vec2(0.0, 100.0));
  EXPECT_DOUBLE_EQ(traj.duration(), 50.0);
  for (std::size_t k = 0; k < traj.size(); ++k) {
    EXPECT_NEAR(traj.at_step(k).velocity.norm(), 3.0, 1e-12) << "step " << k;
  }
}

TEST(Trajectory, TurnsBoundedByFifteenDegrees) {
  RandomTurnConfig config;
  config.steer_within.reset();  // pure random walk
  rng::Rng rng(127);
  const Trajectory traj = generate_random_turn_trajectory(config, rng);
  for (std::size_t k = 1; k + 1 < traj.size(); ++k) {
    const double turn = std::abs(geom::wrap_angle(traj.at_step(k + 1).velocity.angle() -
                                                  traj.at_step(k).velocity.angle()));
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

// The per-pair libm evaluation of the bearing likelihood, one atan2 and one
// log per pair: the oracle core::BearingEvidence is held to. The kernel
// evaluates the same model with a rational arctangent and one log of a
// product of precisions, so the two agree up to rounding.
double oracle_pair(double z, double dx, double dy, double d2,
                   const core::BearingBatchParams& params) {
  const double residual = geom::wrap_angle(z - std::atan2(dy, dx));
  const double sigma_sq = params.sigma0_sq + params.delta_sq / std::max(d2, params.floor_sq);
  return -0.5 * std::log(sigma_sq) - core::kLogSqrt2Pi - 0.5 * residual * residual / sigma_sq;
}

// One sensor's bearing measurement: where the sensor is and the bearing it
// measured.
struct BearingObservation {
  geom::Vec2 sensor;
  double bearing_rad = 0.0;
};

// Bearings added to a BearingEvidence and kept, as measured, beside it: the
// oracle scores the bearings themselves, not the kernel's stored form of
// them.
struct ScoredBearings {
  core::BearingEvidence evidence;
  std::vector<BearingObservation> observations;

  explicit ScoredBearings(double sigma0, double delta,
                          double comm_radius = std::numeric_limits<double>::infinity())
      : evidence(sigma0, delta, comm_radius) {}
  void add(geom::Vec2 sensor, double z) {
    evidence.add(sensor, z);
    observations.push_back({sensor, z});
  }
  void clear() {
    evidence.clear();
    observations.clear();
  }
};

// The oracle's sum over the bearings within `gate_sq` of p, and the sum of
// the magnitudes of its terms, which scales the rounding the kernel may
// differ by: 64 eps per unit of sum_k |l_k|.
struct OracleSum {
  double value = 0.0;
  double magnitude = 0.0;
  double tolerance() const { return 64.0 * std::numeric_limits<double>::epsilon() * magnitude; }
};

OracleSum oracle_sum(const ScoredBearings& bearings, geom::Vec2 p,
                     const core::BearingBatchParams& params,
                     double gate_sq = std::numeric_limits<double>::infinity()) {
  OracleSum sum;
  for (const BearingObservation& o : bearings.observations) {
    const double dx = p.x - o.sensor.x;
    const double dy = p.y - o.sensor.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 <= gate_sq) {
      const double l = oracle_pair(o.bearing_rad, dx, dy, d2, params);
      sum.value += l;
      sum.magnitude += std::abs(l);
    }
  }
  return sum;
}

// log_likelihood(p) of a single record, against the oracle.
double single_record(double sigma0, double delta, geom::Vec2 sensor, double z, geom::Vec2 p) {
  ScoredBearings bearings(sigma0, delta);
  bearings.add(sensor, z);
  const OracleSum oracle = oracle_sum(bearings, p, core::BearingBatchParams(sigma0, delta));
  const double value = bearings.evidence.log_likelihood(p);
  EXPECT_NEAR(value, oracle.value, oracle.tolerance())
      << "sensor (" << sensor.x << ", " << sensor.y << "), z " << z << ", p (" << p.x << ", "
      << p.y << ")";
  return value;
}

TEST(BearingModel, LikelihoodPeaksAtTruth) {
  const BearingMeasurementModel m(0.05);
  const geom::Vec2 sensor{0.0, 0.0};
  const geom::Vec2 truth{10.0, 0.0};
  const double z = m.ideal(sensor, truth);
  EXPECT_GT(single_record(0.05, 0.0, sensor, z, truth),
            single_record(0.05, 0.0, sensor, z, {10.0, 1.0}));
  EXPECT_GT(single_record(0.05, 0.0, sensor, z, truth),
            single_record(0.05, 0.0, sensor, z, {10.0, 0.5}));
}

TEST(BearingModel, ResidualWrapsAcrossSeam) {
  const geom::Vec2 sensor{0.0, 0.0};
  // Target just below the -x axis: bearing ~ -pi; measurement ~ +pi.
  const double z = geom::kPi - 0.01;
  const geom::Vec2 target{-10.0, -0.05};
  // Without wrapping the residual would be ~2*pi and the density ~0.
  EXPECT_GT(single_record(0.1, 0.0, sensor, z, target), -10.0);
}

TEST(BearingModel, MeasurementNoiseStatistics) {
  const BearingMeasurementModel m(0.05);
  rng::Rng rng(131);
  const geom::Vec2 sensor{0.0, 0.0}, target{5.0, 5.0};
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double r =
        geom::wrap_angle(m.measure(sensor, target, rng) - m.ideal(sensor, target));
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
  const auto kernel = [&](geom::Vec2 p, double delta) {
    return single_record(0.05, delta, sensor, z, p);
  };
  // Without inflation the kernel is the plain normal density of the
  // wrapped residual.
  const double residual = geom::wrap_angle(z - m.ideal(sensor, off));
  EXPECT_NEAR(kernel(off, 0.0),
              -std::log(0.05) - core::kLogSqrt2Pi - 0.5 * residual * residual / 0.0025, 1e-12);
  const double sharp_gap = kernel(truth, 0.0) - kernel(off, 0.0);
  const double flat_gap = kernel(truth, 5.0) - kernel(off, 5.0);  // delta / d = 0.5 rad at 10 m
  EXPECT_GT(sharp_gap, flat_gap);
  EXPECT_GT(flat_gap, 0.0);  // still prefers the truth
  EXPECT_THROW(core::BearingBatchParams(0.0, 5.0), Error);
  // Every precision must stay inside the range the precision product relies on.
  EXPECT_THROW(core::BearingBatchParams(1e-61, 5.0), Error);
  EXPECT_THROW(core::BearingBatchParams(1.01e3, 5.0), Error);
  EXPECT_NO_THROW(core::BearingBatchParams(1e-60, 1e60));
  EXPECT_NO_THROW(core::BearingBatchParams(1e3, 1e60));
  // A nonzero delta whose square underflows would make the precision at
  // d = 0 a 0 / 0; the smallest accepted one keeps it at 1 / (sigma0^2 + 1).
  EXPECT_THROW(core::BearingBatchParams(0.05, 1e-200), Error);
  EXPECT_THROW(core::BearingBatchParams(0.05, 1e-101), Error);
  for (const double sigma0 : {1e-60, 0.05, 1e3}) {
    const double on_sensor = single_record(sigma0, 1e-100, sensor, 0.4, sensor);
    const double sigma_sq = sigma0 * sigma0 + 1.0;
    EXPECT_NEAR(on_sensor, -0.5 * std::log(sigma_sq) - core::kLogSqrt2Pi - 0.08 / sigma_sq,
                1e-12 * (1.0 + std::abs(std::log(sigma_sq))))
        << "sigma0 " << sigma0;
  }
  EXPECT_THROW(core::BearingBatchParams(0.05, std::numeric_limits<double>::infinity()), Error);
  EXPECT_THROW(core::BearingBatchParams(0.05, std::nan("")), Error);
}

// Ordered distance in units in the last place: adjacent doubles are 1
// apart, +0 and -0 are 0 apart.
std::int64_t ulp_distance(double a, double b) {
  const auto ordered = [](double v) {
    const auto bits = std::bit_cast<std::int64_t>(v);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

TEST(PolynomialAtan2, WithinTwoUlpOfLibm) {
  std::int64_t worst = 0;
  const auto check = [&](double y, double x) {
    const std::int64_t d = ulp_distance(core::polynomial_atan2(y, x), std::atan2(y, x));
    worst = std::max(worst, d);
    EXPECT_LE(d, 2) << "atan2(" << y << ", " << x << ")";
  };
  rng::Rng rng(149);
  for (int i = 0; i < 1000000; ++i) {
    // Directions uniform on the circle at lengths across twelve decades.
    const double theta = rng.uniform(-geom::kPi, geom::kPi);
    const double length = std::pow(10.0, rng.uniform(-6.0, 6.0));
    check(length * std::sin(theta), length * std::cos(theta));
  }
  for (int i = 0; i < 200000; ++i) {
    // Independent magnitudes, so ratios reach the underflowing and the
    // near-axis ends of each octant.
    const double y = std::ldexp(rng.uniform(-1.0, 1.0), static_cast<int>(rng.uniform(-80, 80)));
    const double x = std::ldexp(rng.uniform(-1.0, 1.0), static_cast<int>(rng.uniform(-80, 80)));
    check(y, x);
  }
  // The octant switches (|y| = 0.66|x| and |x| = 0.66|y|), the diagonals
  // and the axes, each with its neighbouring doubles, in all four quadrants.
  for (const double sx : {1.0, -1.0}) {
    for (const double sy : {1.0, -1.0}) {
      for (const double ratio : {0.0, 0.66, 1.0, 1.0 / 0.66, 0.41421356237309503,
                                 2.414213562373095}) {
        for (const int step : {-2, -1, 0, 1, 2}) {
          double y = ratio * 0.75;
          for (int k = 0; k < std::abs(step); ++k) {
            y = std::nextafter(y, step < 0 ? -1.0 : 10.0);
          }
          check(sy * y, sx * 0.75);
          check(sx * 0.75, sy * y);
        }
      }
    }
  }
  // The worst case seen is reported so a drift toward the bound shows.
  RecordProperty("worst_ulp", static_cast<int>(worst));
}

TEST(PolynomialAtan2, ZerosAxesAndNan) {
  // libm's signed-zero conventions: the result takes y's sign, and x = -0
  // points left.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(core::polynomial_atan2(0.0, 0.0)),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(core::polynomial_atan2(-0.0, 0.0)),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(core::polynomial_atan2(0.0, -0.0), std::atan2(0.0, -0.0));
  EXPECT_EQ(core::polynomial_atan2(-0.0, -0.0), std::atan2(-0.0, -0.0));
  EXPECT_EQ(core::polynomial_atan2(0.0, -1.0), std::atan2(0.0, -1.0));
  EXPECT_EQ(core::polynomial_atan2(-0.0, -1.0), std::atan2(-0.0, -1.0));
  EXPECT_EQ(core::polynomial_atan2(1.0, 0.0), std::atan2(1.0, 0.0));
  EXPECT_EQ(core::polynomial_atan2(-1.0, 0.0), std::atan2(-1.0, 0.0));
  EXPECT_EQ(core::polynomial_atan2(1.0, -0.0), std::atan2(1.0, -0.0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double other : {0.0, -0.0, 1.0, -1.0, 1e300}) {
    EXPECT_TRUE(std::isnan(core::polynomial_atan2(nan, other))) << other;
    EXPECT_TRUE(std::isnan(core::polynomial_atan2(other, nan))) << other;
  }
  EXPECT_TRUE(std::isnan(core::polynomial_atan2(nan, nan)));
  // One infinite argument gives libm's angle; two give NaN.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double a : {inf, -inf}) {
    for (const double b : {0.0, -0.0, 1.0, -1.0}) {
      EXPECT_EQ(core::polynomial_atan2(a, b), std::atan2(a, b)) << a << ", " << b;
      EXPECT_EQ(core::polynomial_atan2(b, a), std::atan2(b, a)) << b << ", " << a;
    }
    EXPECT_TRUE(std::isnan(core::polynomial_atan2(a, inf)));
    EXPECT_TRUE(std::isnan(core::polynomial_atan2(a, -inf)));
  }
}

// BearingEvidence scores records with a polynomial arctangent and one log
// of the precision product per evaluation point; the oracle above scores
// them pairwise through libm. These cases hold the two within 64 eps of the
// terms' magnitude, and pin the host factor's clamp and earshot floor.
TEST(BearingEvidence, LogLikelihoodSumsEveryRecordWithoutGate) {
  const BearingMeasurementModel m(0.05);
  const geom::Vec2 target{5.0, 5.0};
  ScoredBearings bearings(0.05, 0.5, /*comm_radius=*/10.0);
  for (const geom::Vec2 sensor : {geom::Vec2{0.0, 0.0}, geom::Vec2{10.0, 0.0},
                                  geom::Vec2{40.0, 0.0}}) {
    bearings.add(sensor, m.ideal(sensor, target) + 0.01);
  }
  const core::BearingEvidence& evidence = bearings.evidence;
  const core::BearingBatchParams params(0.05, 0.5);
  const geom::Vec2 p{4.0, 6.0};
  const OracleSum all = oracle_sum(bearings, p, params);
  EXPECT_NEAR(evidence.log_likelihood(p), all.value, all.tolerance());
  // The sensor at (40, 0) is beyond the 10 m gate and still counts.
  const OracleSum gated = oracle_sum(bearings, p, params, 100.0);
  EXPECT_GT(std::abs(evidence.log_likelihood(p) - gated.value), 1.0);
  EXPECT_EQ(evidence.centroid(), geom::Vec2(50.0 / 3.0, 0.0));
}

TEST(BearingEvidence, HostFactorIsHeardSumRelativeToCentroid) {
  const BearingMeasurementModel m(0.05);
  const geom::Vec2 target{5.0, 5.0};
  ScoredBearings bearings(0.05, 0.5, /*comm_radius=*/20.0);
  for (const geom::Vec2 sensor : {geom::Vec2{0.0, 0.0}, geom::Vec2{10.0, 0.0},
                                  geom::Vec2{0.0, 10.0}, geom::Vec2{40.0, 0.0}}) {
    bearings.add(sensor, m.ideal(sensor, target));
  }
  const core::BearingEvidence& evidence = bearings.evidence;
  const core::BearingBatchParams params(0.05, 0.5);
  const geom::Vec2 host{4.0, 6.0};  // hears all but the sensor at (40, 0)
  const OracleSum heard = oracle_sum(bearings, host, params, 400.0);
  const OracleSum reference = oracle_sum(bearings, evidence.centroid(), params);
  const double relative = heard.value - reference.value;
  ASSERT_LT(std::abs(relative), core::kMaxLogWeightFactor);  // unsaturated
  EXPECT_NEAR(std::log(evidence.host_factor(host)), relative,
              heard.tolerance() + reference.tolerance());
  // Refilling the evidence refreshes the cached centroid reference.
  bearings.clear();
  bearings.add({0.0, 0.0}, m.ideal({0.0, 0.0}, target));
  const OracleSum one = oracle_sum(bearings, host, params);
  const OracleSum one_reference = oracle_sum(bearings, {0.0, 0.0}, params);
  EXPECT_NEAR(std::log(evidence.host_factor(host)), one.value - one_reference.value,
              one.tolerance() + one_reference.tolerance());
}

TEST(BearingEvidence, HostOutOfEarshotGetsTheFloor) {
  core::BearingEvidence evidence(0.05, 0.5, /*comm_radius=*/20.0);
  evidence.add({0.0, 0.0}, 0.3);
  evidence.add({10.0, 0.0}, 2.0);
  EXPECT_EQ(evidence.host_factor({100.0, 100.0}), std::exp(-core::kMaxLogWeightFactor));
}

TEST(BearingEvidence, HostFactorClampSaturatesAtBothEnds) {
  const BearingMeasurementModel m(0.001);
  const core::BearingBatchParams params(0.001, 0.0);
  // Upper end: every sensor sits on one side of the target, so the sender
  // centroid lies behind them and contradicts every bearing, while a host
  // on the target matches them all.
  const geom::Vec2 target{0.0, 0.0};
  ScoredBearings one_sided(0.001, 0.0, /*comm_radius=*/50.0);
  for (const geom::Vec2 sensor : {geom::Vec2{10.0, 0.0}, geom::Vec2{10.0, 5.0},
                                  geom::Vec2{10.0, -5.0}, geom::Vec2{15.0, 0.0}}) {
    one_sided.add(sensor, m.ideal(sensor, target));
  }
  ASSERT_GT(oracle_sum(one_sided, target, params).value -
                oracle_sum(one_sided, one_sided.evidence.centroid(), params).value,
            core::kMaxLogWeightFactor);
  EXPECT_EQ(one_sided.evidence.host_factor(target), std::exp(core::kMaxLogWeightFactor));
  // Lower end: sensors surround the target, so the centroid matches every
  // bearing, while a heard host off the target contradicts them.
  ScoredBearings surrounding(0.001, 0.0, /*comm_radius=*/50.0);
  for (const geom::Vec2 sensor : {geom::Vec2{10.0, 0.0}, geom::Vec2{-10.0, 0.0},
                                  geom::Vec2{0.0, 10.0}, geom::Vec2{0.0, -10.0}}) {
    surrounding.add(sensor, m.ideal(sensor, target));
  }
  const geom::Vec2 off{5.0, 5.0};
  ASSERT_LT(oracle_sum(surrounding, off, params).value -
                oracle_sum(surrounding, surrounding.evidence.centroid(), params).value,
            -core::kMaxLogWeightFactor);
  EXPECT_EQ(surrounding.evidence.host_factor(off), std::exp(-core::kMaxLogWeightFactor));
}

TEST(BearingEvidence, PointOnASensorTakesTheZeroBearing) {
  // A host that is itself a detecting sensor (SDPF and CDPF score node
  // positions) sits at d = (0, 0). libm's atan2(0, 0) = 0 makes the
  // residual z itself there, and the variance takes the distance floor.
  for (const double z : {0.0, 0.3, -1.2, 2.9, geom::kPi, -geom::kPi + 1e-9}) {
    for (const double delta : {0.0, 0.5}) {
      const double value = single_record(0.05, delta, {3.0, 4.0}, z, {3.0, 4.0});
      const core::BearingBatchParams params(0.05, delta);
      const double sigma_sq = params.sigma0_sq + params.delta_sq / params.floor_sq;
      EXPECT_NEAR(value, -0.5 * std::log(sigma_sq) - core::kLogSqrt2Pi - 0.5 * z * z / sigma_sq,
                  1e-9 * (1.0 + z * z / sigma_sq))
          << "z " << z << ", delta " << delta;
    }
  }
}

TEST(BearingEvidence, MatchesOracleOnAxesAndOctantBoundaries) {
  // Displacements along both axes, the diagonals and the arctangent's
  // octant switches, against bearings at, beside and opposite to each.
  const geom::Vec2 sensor{50.0, 50.0};
  for (const double length : {0.3, 4.0, 25.0}) {
    for (const double ratio : {0.0, 0.66, 1.0, 1.0 / 0.66}) {
      for (const double sx : {1.0, -1.0}) {
        for (const double sy : {1.0, -1.0}) {
          const geom::Vec2 along{sx * length, sy * length * ratio};
          for (const geom::Vec2 d : {along, geom::Vec2{along.y, along.x}}) {
            const double bearing = std::atan2(d.y, d.x);
            for (const double offset : {0.0, 0.02, -0.07, 1.5, geom::kPi - 0.01}) {
              single_record(0.05, 0.5, sensor, geom::wrap_angle(bearing + offset), sensor + d);
            }
          }
        }
      }
    }
  }
}

TEST(BearingEvidence, ResidualsAtThePiSeam) {
  // A point straight behind the measured bearing: the residual is +-pi,
  // whichever side of the seam the two angles fall.
  const geom::Vec2 sensor{0.0, 0.0};
  for (const double z : {geom::kPi, -geom::kPi + 1e-12, 0.0, 1.0, -2.0}) {
    for (const double tilt : {0.0, 1e-9, -1e-9}) {
      const double behind = z + geom::kPi + tilt;
      const geom::Vec2 p{10.0 * std::cos(behind), 10.0 * std::sin(behind)};
      const double value = single_record(0.05, 0.0, sensor, z, p);
      // r^2 / (2 sigma^2) at r = pi dominates: about -1974.
      EXPECT_NEAR(value, -std::log(0.05) - core::kLogSqrt2Pi - 0.5 * geom::kPi * geom::kPi / 0.0025,
                  1e-4)
          << "z " << z << ", tilt " << tilt;
    }
  }
}

TEST(BearingEvidence, FarPointsKeepTheBaseNoise) {
  // Beyond 1e150 m d^2 overflows, and the inflation term vanishes: the
  // capped distance keeps the precision at 1 / sigma0^2 rather than inf/inf.
  for (const geom::Vec2 p : {geom::Vec2{1e200, 3e199}, geom::Vec2{-1e160, 1e160},
                             geom::Vec2{1e300, -1e300}}) {
    for (const double sigma0 : {0.05, 1e3}) {
      const double value = single_record(sigma0, 0.5, {0.0, 0.0}, 0.7, p);
      EXPECT_TRUE(std::isfinite(value)) << p.x << ", " << p.y;
    }
  }
}

TEST(BearingEvidence, NanPropagates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  core::BearingEvidence evidence(0.05, 0.5);
  evidence.add({0.0, 0.0}, 0.3);
  evidence.add({10.0, 0.0}, 2.0);
  EXPECT_TRUE(std::isnan(evidence.log_likelihood({nan, 1.0})));
  EXPECT_TRUE(std::isnan(evidence.log_likelihood({1.0, nan})));
  // A NaN host fails every earshot gate, so it hears no sender.
  EXPECT_EQ(evidence.host_factor({nan, 1.0}), std::exp(-core::kMaxLogWeightFactor));
  core::BearingEvidence bad_bearing(0.05, 0.5);
  bad_bearing.add({0.0, 0.0}, nan);
  EXPECT_TRUE(std::isnan(bad_bearing.log_likelihood({3.0, 4.0})));
  EXPECT_TRUE(std::isnan(bad_bearing.host_factor({3.0, 4.0})));
}

TEST(BearingEvidence, PrecisionProductFoldsOutOfRange) {
  // sigma0 = 1e-3 and no inflation: every precision is 1e6 (about 2^20),
  // so 700 records drive the product through 2^500 about 28 times. The
  // folded sum must still match the pairwise logs.
  rng::Rng rng(151);
  const BearingMeasurementModel m(0.001);
  const geom::Vec2 target{0.0, 0.0};
  ScoredBearings bearings(0.001, 0.0);
  for (int k = 0; k < 700; ++k) {
    const geom::Vec2 sensor{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)};
    bearings.add(sensor, m.measure(sensor, target, rng));
  }
  const core::BearingBatchParams params(0.001, 0.0);
  for (const geom::Vec2 p : {target, geom::Vec2{0.01, -0.02}, geom::Vec2{3.0, 1.0}}) {
    const OracleSum oracle = oracle_sum(bearings, p, params);
    const double value = bearings.evidence.log_likelihood(p);
    ASSERT_TRUE(std::isfinite(value));
    EXPECT_NEAR(value, oracle.value, oracle.tolerance()) << p.x << ", " << p.y;
  }
}

// The per-point loop the batch kernel replaced: one point's records in
// their stored order, with the kernel's operations, every record or only
// those within `gate_sq`. It is compiled here for the baseline ISA without
// a multiply-add, so it pins the bits every clone of the kernel must give.
struct ScalarSum {
  double log_density = 0.0;
  std::size_t pairs = 0;
};

ScalarSum scalar_sum(const core::BearingEvidence& evidence,
                     const core::BearingBatchParams& params, geom::Vec2 p, bool gated,
                     double gate_sq) {
  double quadratic = 0.0;
  double product = 1.0;
  double folded = 0.0;
  std::size_t pairs = 0;
  for (const core::BearingEvidence::Record& r : evidence.records()) {
    const double dx = p.x - r.sensor.x;
    const double dy = p.y - r.sensor.y;
    const double d2 = dx * dx + dy * dy;
    if (gated && !(d2 <= gate_sq)) {
      continue;
    }
    const double ex = dx + static_cast<double>((dx == 0.0) & (dy == 0.0));
    const double residual =
        core::polynomial_atan2(r.unit.x * dy - r.unit.y * ex, r.unit.x * ex + r.unit.y * dy);
    const double m = std::min(std::max(d2, params.floor_sq), 1e300);
    const double precision = m / (params.sigma0_sq * m + params.delta_sq);
    quadratic += residual * residual * precision;
    product *= precision;
    if (product < 0x1p-500 || product > 0x1p500) {
      folded += std::log(product);
      product = 1.0;
    }
    ++pairs;
  }
  return {0.5 * (folded + std::log(product)) - static_cast<double>(pairs) * core::kLogSqrt2Pi -
              0.5 * quadratic,
          pairs};
}

// Every point scored by log_likelihoods() and host_factors() alone, in
// batches of 2 to 9 (the vectorized loop's scalar epilogue, and its body
// once a batch fills a vector) and of 1000 (the body, across kernel
// blocks): all must give the bits of scalar_sum(). `points` is padded with
// points around (5, 5) up to 1000.
void expect_batches_match_scalar_loop(const core::BearingEvidence& evidence, double sigma0,
                                      double delta, double comm_radius,
                                      std::vector<geom::Vec2> points) {
  const core::BearingBatchParams params(sigma0, delta);
  const double gate_sq = comm_radius * comm_radius;
  const double reference =
      scalar_sum(evidence, params, evidence.centroid(), /*gated=*/false, gate_sq).log_density;
  rng::Rng rng(157);
  while (points.size() < 1000) {
    points.push_back({rng.gaussian(5.0, 8.0), rng.gaussian(5.0, 8.0)});
  }
  std::vector<std::uint64_t> expected_ll;
  std::vector<std::uint64_t> expected_factor;
  for (const geom::Vec2 p : points) {
    expected_ll.push_back(std::bit_cast<std::uint64_t>(
        scalar_sum(evidence, params, p, /*gated=*/false, gate_sq).log_density));
    const ScalarSum heard = scalar_sum(evidence, params, p, /*gated=*/true, gate_sq);
    expected_factor.push_back(std::bit_cast<std::uint64_t>(
        heard.pairs == 0 ? std::exp(-core::kMaxLogWeightFactor)
                         : std::exp(std::clamp(heard.log_density - reference,
                                               -core::kMaxLogWeightFactor,
                                               core::kMaxLogWeightFactor))));
  }
  core::PointBatch batch;
  for (const std::size_t size :
       std::initializer_list<std::size_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 1000}) {
    for (std::size_t start = 0; start < points.size(); start += size) {
      batch.clear();
      for (std::size_t i = start; i < std::min(start + size, points.size()); ++i) {
        batch.add(points[i]);
      }
      evidence.log_likelihoods(batch.x, batch.y, batch.scores);
      for (std::size_t i = 0; i < batch.x.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(batch.scores[i]), expected_ll[start + i])
            << "log-likelihood of point " << start + i << " (" << batch.x[i] << ", "
            << batch.y[i] << ") in a batch of " << size;
      }
      evidence.host_factors(batch.x, batch.y, batch.scores);
      for (std::size_t i = 0; i < batch.x.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(batch.scores[i]), expected_factor[start + i])
            << "host factor of point " << start + i << " (" << batch.x[i] << ", "
            << batch.y[i] << ") in a batch of " << size;
      }
    }
  }
}

TEST(BearingEvidence, BatchesMatchTheScalarLoopBitForBit) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const BearingMeasurementModel m(0.05);
  const geom::Vec2 target{5.0, 5.0};
  // A sensor at the origin measuring bearing 0, so the kernel's arctangent
  // sees d itself, plus ~124 sensors that detect the target.
  core::BearingEvidence evidence(0.05, 0.5, /*comm_radius=*/30.0);
  evidence.add({0.0, 0.0}, 0.0);
  rng::Rng rng(153);
  while (evidence.records().size() < 125) {
    const geom::Vec2 sensor{rng.uniform(-5.0, 15.0), rng.uniform(-5.0, 15.0)};
    evidence.add(sensor, m.measure(sensor, target, rng));
  }
  std::vector<geom::Vec2> points = {
      // d = (0, 0) with every sign of zero, and points on the axes.
      {0.0, 0.0}, {-0.0, 0.0}, {0.0, -0.0}, {-0.0, -0.0}, {0.0, 3.0}, {-0.0, 3.0},
      {3.0, -0.0}, {-3.0, 0.0}, {0.0, -3.0},
      // Out of earshot of every sensor, and beyond the distance cap.
      {200.0, 200.0}, {1e200, 3e199}, {-1e160, 1e160},
      // NaN coordinates.
      {nan, 1.0}, {1.0, nan}, {nan, nan}};
  // The arctangent's octant boundaries |y| = 0.66 |x|, |y| = |x| and
  // |x| = 0.66 |y| in every quadrant, and the pi seam behind the bearing.
  for (const double ratio : {0.66, 1.0, 1.0 / 0.66}) {
    for (const double sx : {1.0, -1.0}) {
      for (const double sy : {1.0, -1.0}) {
        points.push_back({sx * 4.0, sy * 4.0 * ratio});
        points.push_back({sx * 4.0 * ratio, sy * 4.0});
      }
    }
  }
  for (const double tilt : {0.0, 1e-9, -1e-9}) {
    points.push_back({-10.0 * std::cos(tilt), 10.0 * std::sin(tilt)});
  }
  expect_batches_match_scalar_loop(evidence, 0.05, 0.5, 30.0, points);

  // Both clamp ends of the host factor: sensors on one side of the target
  // (the centroid contradicts every bearing) and sensors around it (a host
  // off the target contradicts them).
  const BearingMeasurementModel sharp(0.001);
  core::BearingEvidence one_sided(0.001, 0.0, /*comm_radius=*/50.0);
  core::BearingEvidence surrounding(0.001, 0.0, /*comm_radius=*/50.0);
  for (const geom::Vec2 sensor : {geom::Vec2{10.0, 0.0}, geom::Vec2{10.0, 5.0},
                                  geom::Vec2{10.0, -5.0}, geom::Vec2{15.0, 0.0}}) {
    one_sided.add(sensor, sharp.ideal(sensor, {0.0, 0.0}));
  }
  for (const geom::Vec2 sensor : {geom::Vec2{10.0, 0.0}, geom::Vec2{-10.0, 0.0},
                                  geom::Vec2{0.0, 10.0}, geom::Vec2{0.0, -10.0}}) {
    surrounding.add(sensor, sharp.ideal(sensor, {0.0, 0.0}));
  }
  ASSERT_EQ(one_sided.host_factor({0.0, 0.0}), std::exp(core::kMaxLogWeightFactor));
  ASSERT_EQ(surrounding.host_factor({5.0, 5.0}), std::exp(-core::kMaxLogWeightFactor));
  expect_batches_match_scalar_loop(one_sided, 0.001, 0.0, 50.0, {{0.0, 0.0}, {5.0, 5.0}});
  expect_batches_match_scalar_loop(surrounding, 0.001, 0.0, 50.0, {{0.0, 0.0}, {5.0, 5.0}});

  // Precision products folded upward (sigma0 = 1e-3: each precision is
  // about 2^20) and downward (sigma0 = 1e3: about 2^-20), four times or more
  // over 100 records.
  for (const double sigma0 : {1e-3, 1e3}) {
    core::BearingEvidence folding(sigma0, 0.0, /*comm_radius=*/12.0);
    for (int k = 0; k < 100; ++k) {
      const geom::Vec2 sensor{rng.uniform(-5.0, 15.0), rng.uniform(-5.0, 15.0)};
      folding.add(sensor, m.measure(sensor, target, rng));
    }
    expect_batches_match_scalar_loop(folding, sigma0, 0.0, 12.0, {target, {0.01, -0.02}});
  }

  // A NaN bearing: (3, 4) hears both sensors, (35, 0) only the one at
  // (10, 0), and (100, 0) neither.
  core::BearingEvidence bad_bearing(0.05, 0.5, /*comm_radius=*/30.0);
  bad_bearing.add({0.0, 0.0}, nan);
  bad_bearing.add({10.0, 0.0}, 2.0);
  expect_batches_match_scalar_loop(bad_bearing, 0.05, 0.5, 30.0,
                                   {{3.0, 4.0}, {35.0, 0.0}, {100.0, 0.0}});
}

TEST(LinearProbability, MatchesDefinition) {
  const LinearProbabilityModel m(10.0);
  EXPECT_DOUBLE_EQ(m.probability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(m.probability(5.0), 0.5);
  EXPECT_DOUBLE_EQ(m.probability(10.0), 0.0);
  EXPECT_DOUBLE_EQ(m.probability(15.0), 0.0);
  EXPECT_THROW(m.probability(-1.0), Error);
}

}  // namespace
}  // namespace cdpf::tracking
