#include "tracking/motion_model.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace cdpf::tracking {

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

template <typename Step>
PolarVelocity RandomTurnMotionModel::walk(PolarVelocity v, rng::Rng& rng,
                                          Step&& step) const {
  for (std::size_t i = 0; i < substeps_; ++i) {
    v.heading += rng.uniform(-max_turn_rad_, max_turn_rad_);
    if (speed_sigma_fraction_ > 0.0) {
      v.speed = std::max(0.0, v.speed * (1.0 + rng.gaussian(0.0, speed_sigma_fraction_)));
    }
    step(v);
  }
  return v;
}

TargetState RandomTurnMotionModel::sample(const TargetState& state,
                                          rng::Rng& rng) const {
  TargetState next = state;
  walk({state.velocity.angle(), state.velocity.norm()}, rng, [&](PolarVelocity v) {
    next.velocity = geom::Vec2::from_angle(v.heading) * v.speed;
    next.position += next.velocity * substep_dt_;
  });
  return next;
}

PolarVelocity RandomTurnMotionModel::sample_polar(double heading, double speed,
                                                  rng::Rng& rng) const {
  return walk({heading, speed}, rng, [](PolarVelocity) {});
}

RandomTurnMotionModel make_motion_model(double dt) {
  constexpr double kSubstepDt = 1.0;
  constexpr double kMaxTurnRad = 0.2617993877991494;  // 15 degrees
  constexpr double kSpeedSigmaFraction = 0.02;
  return RandomTurnMotionModel(dt, kSubstepDt, kMaxTurnRad, kSpeedSigmaFraction);
}

}  // namespace cdpf::tracking
