// Tests for the PF-branch extensions (UKF, auxiliary PF).
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "core/batch_kernels.hpp"
#include "filters/auxiliary.hpp"
#include "geom/angles.hpp"
#include "filters/ekf.hpp"
#include "filters/ukf.hpp"
#include "random/rng.hpp"
#include "support/check.hpp"
#include "tracking/measurement.hpp"

namespace cdpf {
namespace {

// ---------------------------------------------------------------------- UKF
TEST(Ukf, LocalizesStaticTargetFromBearings) {
  const tracking::ConstantVelocityModel model(1.0, 0.01, 0.01);
  const geom::Vec2 truth{60.0, 45.0};
  const geom::Vec2 sensors[] = {{0.0, 0.0}, {100.0, 0.0}, {0.0, 100.0}};
  rng::Rng rng(51);

  filters::BearingsOnlyUkf ukf(model, 0.05, {{50.0, 50.0}, {0.0, 0.0}},
                               linalg::Mat<4, 4>::identity() * 100.0);
  for (int k = 0; k < 30; ++k) {
    ukf.predict();
    std::vector<tracking::BearingObservation> obs;
    for (const geom::Vec2 s : sensors) {
      obs.push_back({s, geom::wrap_angle((truth - s).angle() + rng.gaussian(0.0, 0.05))});
    }
    ukf.update(obs);
  }
  EXPECT_LT(geom::distance(ukf.estimate().position, truth), 2.5);
}

TEST(Ukf, CovarianceContractsWithInformation) {
  const tracking::ConstantVelocityModel model(1.0, 0.01, 0.01);
  filters::BearingsOnlyUkf ukf(model, 0.05, {{50.0, 50.0}, {0.0, 0.0}},
                               linalg::Mat<4, 4>::identity() * 100.0);
  const double before = ukf.covariance().trace();
  std::vector<tracking::BearingObservation> obs{{{0.0, 0.0}, 0.785},
                                               {{100.0, 0.0}, 2.356}};
  ukf.update(obs);
  EXPECT_LT(ukf.covariance().trace(), before);
}

TEST(Ukf, MatchesEkfOnMildGeometry) {
  // Far-field bearings are nearly linear: UKF and EKF should agree closely.
  const tracking::ConstantVelocityModel model(1.0, 0.02, 0.02);
  const geom::Vec2 truth{50.0, 50.0};
  const geom::Vec2 sensors[] = {{-200.0, 0.0}, {300.0, 0.0}, {50.0, 400.0}};
  rng::Rng rng_a(53), rng_b(53);

  filters::BearingsOnlyUkf ukf(model, 0.02, {{40.0, 60.0}, {0.0, 0.0}},
                               linalg::Mat<4, 4>::identity() * 40.0);
  filters::BearingsOnlyEkf ekf(model, 0.02, {{40.0, 60.0}, {0.0, 0.0}},
                               linalg::Mat<4, 4>::identity() * 40.0);
  for (int k = 0; k < 25; ++k) {
    std::vector<tracking::BearingObservation> obs;
    for (const geom::Vec2 s : sensors) {
      obs.push_back(
          {s, geom::wrap_angle((truth - s).angle() + rng_a.gaussian(0.0, 0.02))});
    }
    ukf.predict();
    ukf.update(obs);
    ekf.predict();
    ekf.update(obs);
  }
  EXPECT_LT(geom::distance(ukf.estimate().position, ekf.estimate().position), 2.0);
  EXPECT_LT(geom::distance(ukf.estimate().position, truth), 3.0);
}

TEST(Ukf, SkipsDegenerateSensorGeometry) {
  const tracking::ConstantVelocityModel model(1.0, 0.01, 0.01);
  filters::BearingsOnlyUkf ukf(model, 0.05, {{10.0, 10.0}, {0.0, 0.0}},
                               linalg::Mat<4, 4>::identity() * 1e-6);
  std::vector<tracking::BearingObservation> obs{{{10.0, 10.0}, 0.5}};
  EXPECT_NO_THROW(ukf.update(obs));
}

// ---------------------------------------------------------------------- APF
TEST(Apf, ConcentratesOnSharpLikelihoodFasterThanBlindPropagation) {
  const tracking::BearingMeasurementModel bearing(0.05);
  const geom::Vec2 truth{50.0, 50.0};
  core::BearingEvidence evidence(0.05, 0.0);  // no inflation: the plain Gaussian
  for (const geom::Vec2 sensor :
       {geom::Vec2{20.0, 20.0}, geom::Vec2{80.0, 20.0}, geom::Vec2{50.0, 85.0}}) {
    evidence.add(sensor, bearing.ideal(sensor, truth));
  }
  auto log_likelihood = [&](const tracking::TargetState& s) {
    return evidence.log_likelihood(s.position);
  };

  filters::AuxiliaryFilterConfig config;
  config.num_particles = 800;
  filters::AuxiliaryParticleFilter apf(
      std::make_unique<tracking::ConstantVelocityModel>(1.0, 0.3, 0.3), config);
  rng::Rng rng(55);
  apf.initialize({{40.0, 60.0}, {0.0, 0.0}}, {8.0, 8.0}, {0.2, 0.2}, rng);
  for (int k = 0; k < 12; ++k) {
    apf.step(log_likelihood, rng);
  }
  EXPECT_LT(geom::distance(apf.estimate().position, truth), 1.0);
}

TEST(Apf, SurvivesImpossibleMeasurement) {
  filters::AuxiliaryParticleFilter apf(
      std::make_unique<tracking::ConstantVelocityModel>(1.0, 0.1, 0.1),
      filters::AuxiliaryFilterConfig{});
  rng::Rng rng(57);
  apf.initialize({{0.0, 0.0}, {1.0, 0.0}}, {1.0, 1.0}, {0.1, 0.1}, rng);
  apf.step([](const tracking::TargetState&) {
    return -std::numeric_limits<double>::infinity();
  },
           rng);
  EXPECT_TRUE(apf.initialized());
  EXPECT_NO_THROW(apf.estimate());
}

TEST(Apf, PredictOnlyAdvancesTheCloud) {
  filters::AuxiliaryParticleFilter apf(
      std::make_unique<tracking::ConstantVelocityModel>(1.0, 0.01, 0.01),
      filters::AuxiliaryFilterConfig{});
  rng::Rng rng(59);
  apf.initialize({{0.0, 0.0}, {2.0, 0.0}}, {0.1, 0.1}, {0.01, 0.01}, rng);
  apf.predict_only(rng);
  EXPECT_NEAR(apf.estimate().position.x, 2.0, 0.1);
  EXPECT_THROW(
      filters::AuxiliaryParticleFilter(nullptr, filters::AuxiliaryFilterConfig{}),
      Error);
}

}  // namespace
}  // namespace cdpf
