#include "tracking/motion_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "support/check.hpp"
#include "tracking/walk_kernel.hpp"

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

namespace {

/// Substeps drawn per block: a batch of any size runs on stack buffers of
/// this many draws and never touches the heap.
constexpr std::size_t kDrawBlock = 256;

}  // namespace

void RandomTurnMotionModel::draw(rng::Rng& rng, std::span<double> turns,
                                 std::span<double> normals) const {
  if (speed_sigma_fraction_ > 0.0) {
    rng.uniform_normal_pairs(turns, normals);
    return;
  }
  for (double& u : turns) {
    u = rng.uniform();
  }
}

TargetState RandomTurnMotionModel::sample(const TargetState& state,
                                          rng::Rng& rng) const {
  const TurnWalk walk{-max_turn_rad_, max_turn_rad_, speed_sigma_fraction_,
                      speed_sigma_fraction_ > 0.0};
  std::array<double, kDrawBlock> turns;
  std::array<double, kDrawBlock> normals;
  TargetState next = state;
  double heading = state.velocity.angle();
  double speed = state.velocity.norm();
  for (std::size_t done = 0; done < substeps_;) {
    const std::size_t len = std::min(kDrawBlock, substeps_ - done);
    draw(rng, {turns.data(), len}, {normals.data(), len});
    for (std::size_t j = 0; j < len; ++j) {
      heading = walk.turned(heading, turns[j]);
      if (walk.noisy_speed) {
        speed = walk.scaled(speed, normals[j]);
      }
      next.velocity = geom::Vec2::from_angle(heading) * speed;
      next.position += next.velocity * substep_dt_;
    }
    done += len;
  }
  return next;
}

void RandomTurnMotionModel::sample_polar(double heading, double speed, rng::Rng& rng,
                                         std::span<double> headings,
                                         std::span<double> speeds) const {
  CDPF_CHECK_MSG(headings.size() == speeds.size(),
                 "sample_polar needs one heading per speed");
  const TurnWalk walk{-max_turn_rad_, max_turn_rad_, speed_sigma_fraction_,
                      speed_sigma_fraction_ > 0.0};
  std::array<double, kDrawBlock> turns;
  std::array<double, kDrawBlock> normals;
  // Copies go in groups whose draws fill a block; a copy longer than a
  // block goes alone, a block's worth of its substeps at a time.
  const std::size_t group = std::max<std::size_t>(1, kDrawBlock / substeps_);
  const std::size_t n = headings.size();
  for (std::size_t c0 = 0; c0 < n; c0 += group) {
    const std::size_t m = std::min(group, n - c0);
    std::fill_n(headings.begin() + static_cast<std::ptrdiff_t>(c0), m, heading);
    std::fill_n(speeds.begin() + static_cast<std::ptrdiff_t>(c0), m, speed);
    const std::size_t steps = m * substeps_ <= kDrawBlock ? substeps_ : kDrawBlock;
    for (std::size_t done = 0; done < substeps_;) {
      const std::size_t len = std::min(steps, substeps_ - done);
      draw(rng, {turns.data(), m * len}, {normals.data(), m * len});
      advance_walks(walk, m, len, turns.data(), normals.data(), headings.data() + c0,
                    speeds.data() + c0);
      done += len;
    }
  }
}

RandomTurnMotionModel make_motion_model(double dt) {
  constexpr double kSubstepDt = 1.0;
  constexpr double kMaxTurnRad = 0.2617993877991494;  // 15 degrees
  constexpr double kSpeedSigmaFraction = 0.02;
  return RandomTurnMotionModel(dt, kSubstepDt, kMaxTurnRad, kSpeedSigmaFraction);
}

}  // namespace cdpf::tracking
