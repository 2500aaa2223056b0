// The random-turn motion model that mirrors the paper's maneuvering ground
// truth. Every particle filter in the library uses the prior as the
// importance density, per the paper's SIR choice (§II-A): the model
// make_motion_model() builds.
#pragma once

#include <cstddef>

#include "geom/vec2.hpp"
#include "random/rng.hpp"
#include "tracking/state.hpp"

namespace cdpf::tracking {

/// A velocity in polar form: heading (rad from +x) and speed (m/s), as the
/// random-turn walk carries it between substeps.
struct PolarVelocity {
  double heading = 0.0;
  double speed = 0.0;
};

/// Random-turn (coordinated-turn-style) motion model matching the paper's
/// ground-truth target process: per `substep_dt` the heading turns a random
/// angle uniform in [-max_turn, +max_turn] while the speed stays (almost)
/// constant. Using it as the importance density lets particles hypothesize
/// turn sequences — essential for tracking the maneuvering target.
class RandomTurnMotionModel {
 public:
  /// One sample() covers `dt` seconds as round(dt / substep_dt) sub-steps
  /// (the paper's ground truth turns every 1 s; the distributed filters
  /// iterate every 5 s, i.e. five sub-steps per prediction).
  RandomTurnMotionModel(double dt, double substep_dt, double max_turn_rad,
                        double speed_sigma_fraction);

  /// Discretization step of one prediction (seconds).
  double dt() const { return dt_; }

  /// Deterministic (noise-free) propagation over one step.
  TargetState propagate(const TargetState& state) const;

  /// Stochastic propagation: one draw from p(x_k | x_{k-1}).
  TargetState sample(const TargetState& state, rng::Rng& rng) const;

  /// The velocity walk of sample() in polar form: starting from
  /// (heading, speed) — sample() starts from (velocity.angle(),
  /// velocity.norm()) — it runs sample()'s own substep walk, so it consumes
  /// EXACTLY sample()'s RNG draws, in the same order, and returns the final
  /// substep's heading and speed: from_angle(heading) * speed is sample()'s
  /// next.velocity bit for bit. It computes no trigonometry and integrates
  /// no position. CDPF's particle division draws one per recorded copy: the
  /// recorder's position becomes the copy's and the hop's direction its
  /// heading, so the caller takes the host's angle() and norm() once for all
  /// of its copies and builds a velocity from the heading only when the
  /// recorder sits on the host. Breaking the RNG-stream or bitwise contract
  /// moves the golden outputs.
  PolarVelocity sample_polar(double heading, double speed, rng::Rng& rng) const;

 private:
  /// The substep walk of sample() and sample_polar(): per substep the turn
  /// draw, then the speed draw, then `step(v)` with the substep's velocity.
  template <typename Step>
  PolarVelocity walk(PolarVelocity v, rng::Rng& rng, Step&& step) const;

  double dt_;
  double substep_dt_;
  double max_turn_rad_;
  double speed_sigma_fraction_;
  std::size_t substeps_;
};

/// The importance density of every particle filter in the library: the
/// random-turn model with the paper's Section VI-A ground-truth parameters
/// (1 s substeps, turns uniform within +-15 degrees, speed sigma 2% per
/// substep), for a filter iterating every `dt` s.
RandomTurnMotionModel make_motion_model(double dt);

}  // namespace cdpf::tracking
