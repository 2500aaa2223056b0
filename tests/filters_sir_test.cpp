// Unit and behavioral tests for the generic SIR particle filter.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/batch_kernels.hpp"
#include "filters/sir_filter.hpp"
#include "support/check.hpp"
#include "tracking/measurement.hpp"

namespace cdpf::filters {
namespace {

// No turns and no speed noise: every particle moves in a straight line.
tracking::RandomTurnMotionModel straight_motion(double dt) {
  return tracking::RandomTurnMotionModel(dt, dt, 0.0, 0.0);
}

// One log-likelihood per particle of `filter`, in particle order: the input
// SirFilter::update() takes.
template <typename LogLikelihood>
std::vector<double> score(const SirFilter& filter, LogLikelihood log_likelihood) {
  std::vector<double> out;
  for (const Particle& p : filter.particles()) {
    out.push_back(log_likelihood(p.state));
  }
  return out;
}

SirFilter make_filter(std::size_t particles = 500) {
  SirFilterConfig config;
  config.num_particles = particles;
  return SirFilter(straight_motion(1.0), config);
}

TEST(SirFilter, RequiresInitialization) {
  SirFilter filter = make_filter();
  rng::Rng rng(301);
  EXPECT_FALSE(filter.initialized());
  EXPECT_THROW(filter.predict(rng), Error);
  EXPECT_THROW(filter.estimate(), Error);
}

TEST(SirFilter, GaussianInitializationMoments) {
  SirFilter filter = make_filter(20000);
  rng::Rng rng(303);
  filter.initialize({{10.0, 20.0}, {1.0, -1.0}}, {2.0, 3.0}, {0.5, 0.5}, rng);
  ASSERT_TRUE(filter.initialized());
  const tracking::TargetState mean = filter.estimate();
  EXPECT_NEAR(mean.position.x, 10.0, 0.1);
  EXPECT_NEAR(mean.position.y, 20.0, 0.1);
  EXPECT_NEAR(mean.velocity.x, 1.0, 0.05);
  EXPECT_NEAR(filter.ess(), 20000.0, 1.0);  // uniform weights
}

TEST(SirFilter, PredictShiftsCloudByVelocity) {
  SirFilter filter = make_filter(5000);
  rng::Rng rng(305);
  filter.initialize({{0.0, 0.0}, {2.0, 0.0}}, {0.1, 0.1}, {0.01, 0.01}, rng);
  filter.predict(rng);
  EXPECT_NEAR(filter.estimate().position.x, 2.0, 0.05);
}

TEST(SirFilter, UpdateReweightsTowardLikelihood) {
  SirFilter filter = make_filter(2000);
  rng::Rng rng(307);
  filter.initialize({{0.0, 0.0}, {0.0, 0.0}}, {5.0, 5.0}, {0.1, 0.1}, rng);
  // Likelihood strongly prefers x > 0.
  filter.update(score(filter, [](const tracking::TargetState& s) {
    return -0.5 * (s.position.x - 4.0) * (s.position.x - 4.0);
  }));
  EXPECT_GT(filter.estimate().position.x, 2.0);
  EXPECT_LT(filter.ess(), 2000.0);  // weights became uneven
}

TEST(SirFilter, AllZeroLikelihoodFallsBackToUniform) {
  SirFilter filter = make_filter(100);
  rng::Rng rng(309);
  filter.initialize({{0.0, 0.0}, {0.0, 0.0}}, {1.0, 1.0}, {0.1, 0.1}, rng);
  const double max_ll = filter.update(score(filter, [](const tracking::TargetState&) {
    return -std::numeric_limits<double>::infinity();
  }));
  EXPECT_TRUE(std::isinf(max_ll));
  EXPECT_NEAR(filter.ess(), 100.0, 1e-9);  // reset to uniform
}

TEST(SirFilter, ResampleEveryStepEqualizesWeights) {
  SirFilter filter = make_filter(1000);
  rng::Rng rng(311);
  filter.initialize({{0.0, 0.0}, {0.0, 0.0}}, {3.0, 3.0}, {0.1, 0.1}, rng);
  filter.update(score(filter, [](const tracking::TargetState& s) {
    return -s.position.norm_squared();
  }));
  filter.resample(rng);
  EXPECT_NEAR(filter.ess(), 1000.0, 1e-6);
}

TEST(SirFilter, TracksStaticTargetWithBearings) {
  // Three bearing sensors around a static target: the filter should
  // concentrate near the truth within a few iterations.
  const tracking::BearingMeasurementModel bearing(0.05);
  const geom::Vec2 truth{50.0, 50.0};
  core::BearingEvidence evidence(0.05, 0.0);  // no inflation: the plain Gaussian
  for (const geom::Vec2 sensor :
       {geom::Vec2{30.0, 30.0}, geom::Vec2{70.0, 30.0}, geom::Vec2{50.0, 80.0}}) {
    evidence.add(sensor, bearing.ideal(sensor, truth));
  }

  SirFilterConfig config;
  config.num_particles = 2000;
  SirFilter filter(straight_motion(1.0), config);
  rng::Rng rng(317);
  filter.initialize({{45.0, 55.0}, {0.0, 0.0}}, {10.0, 10.0}, {0.1, 0.1}, rng);
  for (int k = 0; k < 10; ++k) {
    filter.predict(rng);
    core::PointBatch positions;
    positions.assign_positions(filter.particles());
    evidence.log_likelihoods(positions.x, positions.y, positions.scores);
    filter.update(positions.scores);
    filter.resample(rng);
  }
  EXPECT_NEAR(geom::distance(filter.estimate().position, truth), 0.0, 1.0);
}

TEST(SirFilter, ConfigValidation) {
  SirFilterConfig bad;
  bad.num_particles = 0;
  EXPECT_THROW(SirFilter(straight_motion(1.0), bad), Error);
}

}  // namespace
}  // namespace cdpf::filters
