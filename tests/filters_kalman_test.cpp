// Unit tests for the Kalman filter and the bearings-only EKF baselines.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "filters/ekf.hpp"
#include "filters/kalman.hpp"
#include "geom/angles.hpp"
#include "random/rng.hpp"
#include "tracking/motion_model.hpp"

namespace cdpf::filters {
namespace {

TEST(KalmanFilter, HandComputedScalarUpdate) {
  // 1-D state, direct observation. Prior N(0, 4), measurement z = 2 with
  // R = 1: posterior mean = 4/(4+1) * 2 = 1.6, variance = 4*1/(4+1) = 0.8.
  linalg::Vec<1> x0;
  linalg::Mat<1, 1> p0;
  p0(0, 0) = 4.0;
  KalmanFilter<1, 1> kf(x0, p0);
  linalg::Vec<1> z;
  z[0] = 2.0;
  linalg::Mat<1, 1> h = linalg::Mat<1, 1>::identity();
  linalg::Mat<1, 1> r = linalg::Mat<1, 1>::identity();
  kf.update(z, h, r);
  EXPECT_NEAR(kf.state()[0], 1.6, 1e-12);
  EXPECT_NEAR(kf.covariance()(0, 0), 0.8, 1e-12);
}

TEST(KalmanFilter, PredictGrowsUncertainty) {
  linalg::Vec<1> x0;
  linalg::Mat<1, 1> p0 = linalg::Mat<1, 1>::identity();
  KalmanFilter<1, 1> kf(x0, p0);
  linalg::Mat<1, 1> f = linalg::Mat<1, 1>::identity();
  linalg::Mat<1, 1> q;
  q(0, 0) = 0.5;
  kf.predict(f, q);
  EXPECT_NEAR(kf.covariance()(0, 0), 1.5, 1e-12);
}

TEST(KalmanFilter, ConvergesOnLinearGaussianCvTracking) {
  // KF is the optimal estimator here; after enough position measurements
  // the error must drop well below the measurement noise.
  const tracking::ConstantVelocityModel model(1.0, 0.05, 0.05);
  rng::Rng rng(401);

  tracking::TargetState truth{{0.0, 0.0}, {1.0, 0.5}};
  linalg::Vec<4> x0 = tracking::TargetState{{5.0, -5.0}, {0.0, 0.0}}.to_vector();
  linalg::Mat<4, 4> p0 = linalg::Mat<4, 4>::identity() * 25.0;
  KalmanFilter<4, 2> kf(x0, p0);

  linalg::Mat<2, 4> h;
  h(0, 0) = 1.0;
  h(1, 1) = 1.0;
  linalg::Mat<2, 2> r = linalg::Mat<2, 2>::identity() * (0.5 * 0.5);

  for (int k = 0; k < 50; ++k) {
    truth = model.sample(truth, rng);
    kf.predict(model.phi(), model.process_noise_covariance());
    linalg::Vec<2> z;
    z[0] = truth.position.x + rng.gaussian(0.0, 0.5);
    z[1] = truth.position.y + rng.gaussian(0.0, 0.5);
    kf.update(z, h, r);
  }
  const auto estimate = tracking::TargetState::from_vector(kf.state());
  EXPECT_LT(geom::distance(estimate.position, truth.position), 1.0);
  EXPECT_LT((estimate.velocity - truth.velocity).norm(), 1.0);
}

TEST(KalmanFilter, JosephFormKeepsCovarianceSymmetric) {
  const tracking::ConstantVelocityModel model(1.0, 0.1, 0.1);
  rng::Rng rng(403);
  KalmanFilter<4, 1> kf(linalg::Vec<4>{}, linalg::Mat<4, 4>::identity() * 100.0);
  linalg::Mat<1, 4> h;
  h(0, 0) = 1.0;
  linalg::Mat<1, 1> r;
  r(0, 0) = 0.01;
  for (int k = 0; k < 200; ++k) {
    kf.predict(model.phi(), model.process_noise_covariance());
    linalg::Vec<1> z;
    z[0] = rng.gaussian(0.0, 0.1);
    kf.update(z, h, r);
    const auto& p = kf.covariance();
    const auto asym = p - p.transposed();
    EXPECT_LT(asym.max_abs(), 1e-9);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_GT(p(i, i), 0.0);  // diagonal stays positive
    }
  }
}

TEST(Ekf, LocalizesStaticTargetFromBearings) {
  const tracking::ConstantVelocityModel model(1.0, 0.01, 0.01);
  const geom::Vec2 truth{40.0, 60.0};
  const std::vector<geom::Vec2> sensors{
      {0.0, 0.0}, {100.0, 0.0}, {0.0, 100.0}, {100.0, 100.0}};
  rng::Rng rng(405);

  BearingsOnlyEkf ekf(model, 0.05, {{50.0, 50.0}, {0.0, 0.0}},
                      linalg::Mat<4, 4>::identity() * 100.0);
  for (int k = 0; k < 30; ++k) {
    ekf.predict();
    std::vector<tracking::BearingObservation> obs;
    for (const geom::Vec2 s : sensors) {
      obs.push_back({s, geom::wrap_angle((truth - s).angle() + rng.gaussian(0.0, 0.05))});
    }
    ekf.update(obs);
  }
  EXPECT_LT(geom::distance(ekf.estimate().position, truth), 1.5);
}

TEST(Ekf, HandlesWrapAroundBearings) {
  // Target almost due -x of the sensor: bearings near +-pi. A naive
  // (unwrapped) residual would see jumps of ~2*pi and diverge.
  const tracking::ConstantVelocityModel model(1.0, 0.01, 0.01);
  const geom::Vec2 truth{10.0, 50.0};
  const geom::Vec2 sensors[] = {{80.0, 49.9}, {80.0, 50.1}, {40.0, 90.0}};
  rng::Rng rng(407);

  BearingsOnlyEkf ekf(model, 0.02, {{15.0, 45.0}, {0.0, 0.0}},
                      linalg::Mat<4, 4>::identity() * 50.0);
  for (int k = 0; k < 40; ++k) {
    ekf.predict();
    std::vector<tracking::BearingObservation> obs;
    for (const geom::Vec2 s : sensors) {
      obs.push_back({s, geom::wrap_angle((truth - s).angle() + rng.gaussian(0.0, 0.02))});
    }
    ekf.update(obs);
  }
  EXPECT_LT(geom::distance(ekf.estimate().position, truth), 2.0);
}

TEST(Ekf, SkipsObservationAtSingularGeometry) {
  const tracking::ConstantVelocityModel model(1.0, 0.01, 0.01);
  BearingsOnlyEkf ekf(model, 0.05, {{10.0, 10.0}, {0.0, 0.0}},
                      linalg::Mat<4, 4>::identity());
  // Sensor exactly at the estimated position: update must not blow up.
  std::vector<tracking::BearingObservation> obs{{{10.0, 10.0}, 0.3}};
  EXPECT_NO_THROW(ekf.update(obs));
  EXPECT_NEAR(ekf.estimate().position.x, 10.0, 1e-9);
}

TEST(Ekf, RejectsNonPositiveSigma) {
  const tracking::ConstantVelocityModel model(1.0, 0.01, 0.01);
  EXPECT_THROW(BearingsOnlyEkf(model, 0.0, tracking::TargetState{},
                               linalg::Mat<4, 4>::identity()),
               Error);
}

}  // namespace
}  // namespace cdpf::filters
