// The random-turn motion model that mirrors the paper's maneuvering ground
// truth. Every particle filter in the library uses the prior as the
// importance density, per the paper's SIR choice (§II-A): the model
// make_motion_model() builds.
#pragma once

#include <cstddef>
#include <span>

#include "geom/vec2.hpp"
#include "random/rng.hpp"
#include "tracking/state.hpp"

namespace cdpf::tracking {

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

  /// The velocity walk of sample() in polar form, for a batch of copies:
  /// each copy starts from (heading, speed) — sample() starts from
  /// (velocity.angle(), velocity.norm()) — and runs sample()'s own substep
  /// walk, and headings[c] and speeds[c] receive copy c's final substep.
  /// The batch consumes EXACTLY the RNG draws of one sample() per copy, in
  /// copy order, and a batch of one lands on sample()'s velocity bit for
  /// bit: from_angle(headings[0]) * speeds[0] == sample().velocity. It
  /// computes no trigonometry and integrates no position. CDPF's particle
  /// division draws one copy per recorder, all of a host's copies in one
  /// call: the recorder's position becomes the copy's and the hop's
  /// direction its heading, so the caller builds a velocity from the heading
  /// only when the recorder sits on the host. The spans have one length.
  /// Breaking the RNG-stream or bitwise contract moves the golden outputs.
  void sample_polar(double heading, double speed, rng::Rng& rng,
                    std::span<double> headings, std::span<double> speeds) const;

 private:
  /// Draw `turns.size()` substeps' draws in the order the per-substep calls
  /// make them: per substep the turn uniform, then (with speed noise) the
  /// speed normal, through rng::Rng::uniform_normal_pairs.
  void draw(rng::Rng& rng, std::span<double> turns, std::span<double> normals) const;

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
