#include "tracking/motion_model.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "support/check.hpp"

namespace cdpf::tracking {

ConstantVelocityModel::ConstantVelocityModel(double dt, double sigma_x, double sigma_y)
    : dt_(dt), sigma_x_(sigma_x), sigma_y_(sigma_y) {
  CDPF_CHECK_MSG(dt > 0.0, "motion-model dt must be positive");
  CDPF_CHECK_MSG(sigma_x >= 0.0 && sigma_y >= 0.0, "noise sigmas must be non-negative");

  phi_ = linalg::Mat<4, 4>::identity();
  phi_(0, 2) = dt;
  phi_(1, 3) = dt;

  const double half_dt2 = 0.5 * dt * dt;
  gamma_ = linalg::Mat<4, 2>{};
  gamma_(0, 0) = half_dt2;
  gamma_(1, 1) = half_dt2;
  gamma_(2, 0) = 1.0;
  gamma_(3, 1) = 1.0;

  linalg::Mat<2, 2> sigma;
  sigma(0, 0) = sigma_x * sigma_x;
  sigma(1, 1) = sigma_y * sigma_y;
  q_ = gamma_ * sigma * gamma_.transposed();
}

TargetState ConstantVelocityModel::propagate(const TargetState& state) const {
  return {state.position + state.velocity * dt_, state.velocity};
}

TargetState ConstantVelocityModel::sample(const TargetState& state, rng::Rng& rng) const {
  const geom::Vec2 v{rng.gaussian(0.0, sigma_x_), rng.gaussian(0.0, sigma_y_)};
  TargetState next = propagate(state);
  next.position += v * (0.5 * dt_ * dt_);
  next.velocity += v;
  return next;
}

RandomTurnMotionModel::RandomTurnMotionModel(double dt, double substep_dt,
                                             double max_turn_rad,
                                             double speed_sigma_fraction)
    : dt_(dt),
      substep_dt_(substep_dt),
      max_turn_rad_(max_turn_rad),
      speed_sigma_fraction_(speed_sigma_fraction) {
  CDPF_CHECK_MSG(dt > 0.0 && substep_dt > 0.0, "time steps must be positive");
  CDPF_CHECK_MSG(max_turn_rad >= 0.0, "max turn must be non-negative");
  CDPF_CHECK_MSG(speed_sigma_fraction >= 0.0, "speed sigma must be non-negative");
  substeps_ = static_cast<std::size_t>(std::llround(dt / substep_dt));
  CDPF_CHECK_MSG(substeps_ >= 1, "dt must cover at least one sub-step");
}

TargetState RandomTurnMotionModel::propagate(const TargetState& state) const {
  return {state.position + state.velocity * dt_, state.velocity};
}

TargetState RandomTurnMotionModel::sample(const TargetState& state,
                                          rng::Rng& rng) const {
  TargetState next = state;
  double heading = state.velocity.angle();
  double speed = state.velocity.norm();
  for (std::size_t i = 0; i < substeps_; ++i) {
    heading += rng.uniform(-max_turn_rad_, max_turn_rad_);
    if (speed_sigma_fraction_ > 0.0) {
      speed = std::max(0.0, speed * (1.0 + rng.gaussian(0.0, speed_sigma_fraction_)));
    }
    next.velocity = geom::Vec2::from_angle(heading) * speed;
    next.position += next.velocity * substep_dt_;
  }
  return next;
}

SampledKinematics RandomTurnMotionModel::sample_velocity(const TargetState& state,
                                                         rng::Rng& rng) const {
  // Identical draws in identical order to sample(); heading/speed evolve the
  // same way, so from_angle(heading) * speed reproduces sample()'s final
  // velocity bit for bit.
  double heading = state.velocity.angle();
  double speed = state.velocity.norm();
  for (std::size_t i = 0; i < substeps_; ++i) {
    heading += rng.uniform(-max_turn_rad_, max_turn_rad_);
    if (speed_sigma_fraction_ > 0.0) {
      speed = std::max(0.0, speed * (1.0 + rng.gaussian(0.0, speed_sigma_fraction_)));
    }
  }
  return {geom::Vec2::from_angle(heading) * speed, speed};
}

std::unique_ptr<MotionModel> make_motion_model(double dt) {
  constexpr double kSubstepDt = 1.0;
  constexpr double kMaxTurnRad = 0.2617993877991494;  // 15 degrees
  constexpr double kSpeedSigmaFraction = 0.02;
  return std::make_unique<RandomTurnMotionModel>(dt, kSubstepDt, kMaxTurnRad,
                                                 kSpeedSigmaFraction);
}

double ConstantVelocityModel::transition_density(const TargetState& state,
                                                 const TargetState& next) const {
  // Recover the 2-D noise draw implied by the velocity change...
  const geom::Vec2 v = next.velocity - state.velocity;
  // ... and verify the position change is the one Gamma would produce.
  const geom::Vec2 expected_pos =
      state.position + state.velocity * dt_ + v * (0.5 * dt_ * dt_);
  constexpr double kTolerance = 1e-9;
  if (geom::distance(expected_pos, next.position) > kTolerance) {
    return 0.0;
  }
  if (sigma_x_ == 0.0 || sigma_y_ == 0.0) {
    // Degenerate noise: density is a point mass; report 1 when consistent.
    return (std::abs(v.x) <= kTolerance && std::abs(v.y) <= kTolerance) ? 1.0 : 0.0;
  }
  const double zx = v.x / sigma_x_;
  const double zy = v.y / sigma_y_;
  const double norm = 1.0 / (2.0 * std::numbers::pi * sigma_x_ * sigma_y_);
  return norm * std::exp(-0.5 * (zx * zx + zy * zy));
}

}  // namespace cdpf::tracking
