// Extended Kalman filter for bearings-only tracking.
//
// Linearizes the per-sensor bearing measurement h(x) = atan2(y - sy, x - sx)
// around the current state and applies sequential scalar Kalman updates —
// the classic parametric baseline the particle-filter literature compares
// against on this problem. Residuals are wrapped to (-pi, pi].
#pragma once

#include <span>

#include "filters/kalman.hpp"
#include "geom/vec2.hpp"
#include "tracking/measurement.hpp"
#include "tracking/motion_model.hpp"
#include "tracking/state.hpp"

namespace cdpf::filters {

class BearingsOnlyEkf {
 public:
  /// `bearing_sigma`: measurement noise std-dev in radians.
  BearingsOnlyEkf(tracking::ConstantVelocityModel model, double bearing_sigma,
                  const tracking::TargetState& initial_mean,
                  const linalg::Mat<4, 4>& initial_covariance);

  const tracking::ConstantVelocityModel& motion_model() const { return model_; }
  tracking::TargetState estimate() const;
  const linalg::Mat<4, 4>& covariance() const { return kf_.covariance(); }

  /// Time update through the CV model.
  void predict();

  /// Sequential scalar updates, one per observation.
  void update(std::span<const tracking::BearingObservation> observations);

 private:
  tracking::ConstantVelocityModel model_;
  double variance_;
  KalmanFilter<4, 1> kf_;
};

}  // namespace cdpf::filters
