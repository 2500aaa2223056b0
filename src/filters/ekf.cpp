#include "filters/ekf.hpp"

#include "geom/angles.hpp"
#include "support/check.hpp"

namespace cdpf::filters {

BearingsOnlyEkf::BearingsOnlyEkf(tracking::ConstantVelocityModel model,
                                 double bearing_sigma,
                                 const tracking::TargetState& initial_mean,
                                 const linalg::Mat<4, 4>& initial_covariance)
    : model_(model),
      variance_(bearing_sigma * bearing_sigma),
      kf_(initial_mean.to_vector(), initial_covariance) {
  CDPF_CHECK_MSG(bearing_sigma > 0.0, "bearing sigma must be positive");
}

tracking::TargetState BearingsOnlyEkf::estimate() const {
  return tracking::TargetState::from_vector(kf_.state());
}

void BearingsOnlyEkf::predict() {
  kf_.predict(model_.phi(), model_.process_noise_covariance());
}

void BearingsOnlyEkf::update(
    std::span<const tracking::BearingObservation> observations) {
  for (const tracking::BearingObservation& obs : observations) {
    const linalg::Vec<4>& x = kf_.state();
    const double dx = x[0] - obs.sensor.x;
    const double dy = x[1] - obs.sensor.y;
    const double r2 = dx * dx + dy * dy;
    if (r2 < 1e-12) {
      // Target (estimate) exactly on the sensor: the bearing carries no
      // usable gradient; skip this observation.
      continue;
    }
    // Jacobian of atan2(dy, dx) w.r.t. (x, y, x', y').
    linalg::Mat<1, 4> h;
    h(0, 0) = -dy / r2;
    h(0, 1) = dx / r2;

    const double predicted = std::atan2(dy, dx);
    linalg::Vec<1> innovation;
    innovation[0] = geom::angle_difference(obs.bearing_rad, predicted);

    linalg::Mat<1, 1> r;
    r(0, 0) = variance_;
    kf_.update_with_innovation(innovation, h, r);
  }
}

}  // namespace cdpf::filters
