// Unscented Kalman filter for bearings-only tracking.
//
// Completes the parametric-baseline family next to the KF and EKF: instead
// of linearizing h(x) = atan2(...), the UKF propagates 2n+1 sigma points
// through it (unscented transform), which is markedly more robust when the
// sensor is close to the target and the bearing is strongly nonlinear. Used
// by the tests as a cross-check on the EKF and available to applications as
// a cheap alternative to particle filtering.
#pragma once

#include <span>

#include "linalg/matrix.hpp"
#include "tracking/measurement.hpp"
#include "tracking/motion_model.hpp"
#include "tracking/state.hpp"

namespace cdpf::filters {

struct UkfParams {
  double alpha = 1e-1;  // sigma-point spread
  double beta = 2.0;    // prior-distribution knowledge (2 = Gaussian)
  double kappa = 0.0;   // secondary scaling
};

class BearingsOnlyUkf {
 public:
  BearingsOnlyUkf(tracking::ConstantVelocityModel model, double bearing_sigma,
                  const tracking::TargetState& initial_mean,
                  const linalg::Mat<4, 4>& initial_covariance,
                  UkfParams params = {});

  tracking::TargetState estimate() const;
  const linalg::Mat<4, 4>& covariance() const { return p_; }

  /// Time update through the (linear) CV model with additive process noise.
  void predict();

  /// Sequential scalar unscented updates, one per observation. Angular
  /// residuals are wrapped; the predicted-measurement mean is a circular
  /// mean of the sigma-point bearings.
  void update(std::span<const tracking::BearingObservation> observations);

 private:
  /// 2n+1 sigma points of the current (x, P).
  std::array<linalg::Vec<4>, 9> sigma_points() const;

  tracking::ConstantVelocityModel model_;
  double variance_;
  UkfParams params_;
  double lambda_;
  linalg::Vec<4> x_;
  linalg::Mat<4, 4> p_;
};

}  // namespace cdpf::filters
