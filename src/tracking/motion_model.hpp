// Constant-velocity (CV) motion model of the paper's Eq. (5):
//
//   x_k = Phi x_{k-1} + Gamma v_{k-1}
//
// with Phi the CV transition matrix, Gamma the acceleration-noise input
// matrix and v ~ N(0, diag(sigma_x^2, sigma_y^2)), and the random-turn
// model that mirrors the paper's maneuvering ground truth. The SIR-based
// filters use the prior as the proposal, per the paper: the random-turn one
// make_motion_model() builds.
#pragma once

#include <cstddef>
#include <memory>

#include "geom/vec2.hpp"
#include "linalg/matrix.hpp"
#include "random/rng.hpp"
#include "tracking/state.hpp"

namespace cdpf::tracking {

/// What CDPF's division loop actually needs from a proposal draw: the new
/// velocity and its magnitude. Returning both lets models that compute the
/// speed anyway (random-turn) hand it over instead of the caller re-deriving
/// it with a hypot.
struct SampledKinematics {
  geom::Vec2 velocity;
  double speed = 0.0;
};

/// Abstract dynamic model: every filter's prediction step samples from one
/// of these (the prior as importance density, per the paper's SIR choice).
class MotionModel {
 public:
  virtual ~MotionModel() = default;

  /// Discretization step of one prediction (seconds).
  virtual double dt() const = 0;

  /// Deterministic (noise-free) propagation over one step.
  virtual TargetState propagate(const TargetState& state) const = 0;

  /// Stochastic propagation: one draw from p(x_k | x_{k-1}).
  virtual TargetState sample(const TargetState& state, rng::Rng& rng) const = 0;

  /// Velocity-only stochastic propagation: consumes EXACTLY the same RNG
  /// draws as sample() and returns the same next.velocity (bitwise), plus
  /// its norm — but may skip the position integration. CDPF's particle
  /// division discards sample()'s position (recorder geometry decides where
  /// the particle lands), so this shaves the per-substep trigonometry off
  /// the hottest call in the filter. Overrides must preserve the RNG-stream
  /// and bitwise-velocity contract or the golden outputs move.
  virtual SampledKinematics sample_velocity(const TargetState& state,
                                            rng::Rng& rng) const {
    const geom::Vec2 v = sample(state, rng).velocity;
    return {v, v.norm()};
  }
};

class ConstantVelocityModel final : public MotionModel {
 public:
  /// dt: discretization step (s); sigma_x/sigma_y: acceleration-noise
  /// standard deviations (m/s^2) along each axis.
  ConstantVelocityModel(double dt, double sigma_x, double sigma_y);

  double dt() const override { return dt_; }
  double sigma_x() const { return sigma_x_; }
  double sigma_y() const { return sigma_y_; }

  /// Transition matrix Phi (paper's notation).
  const linalg::Mat<4, 4>& phi() const { return phi_; }
  /// Noise input matrix Gamma.
  const linalg::Mat<4, 2>& gamma() const { return gamma_; }
  /// Process noise covariance Q = Gamma diag(sx^2, sy^2) Gamma^T.
  const linalg::Mat<4, 4>& process_noise_covariance() const { return q_; }

  /// Deterministic propagation (no process noise).
  TargetState propagate(const TargetState& state) const override;

  /// Stochastic propagation: Phi x + Gamma v with v drawn from rng. This is
  /// the particle-filter proposal q(x_k | x_{k-1}).
  TargetState sample(const TargetState& state, rng::Rng& rng) const override;

  /// Transition density p(x_k | x_{k-1}) evaluated at `next`. Well defined
  /// because Q is rank-2 in (position implied by velocity): we evaluate the
  /// density of the 2-D noise v recovering `next` from `state`, and return 0
  /// when `next` is not reachable (the position/velocity displacement pair
  /// is inconsistent beyond tolerance).
  double transition_density(const TargetState& state, const TargetState& next) const;

 private:
  double dt_;
  double sigma_x_;
  double sigma_y_;
  linalg::Mat<4, 4> phi_;
  linalg::Mat<4, 2> gamma_;
  linalg::Mat<4, 4> q_;
};

/// Random-turn (coordinated-turn-style) motion model matching the paper's
/// ground-truth target process: per `substep_dt` the heading turns a random
/// angle uniform in [-max_turn, +max_turn] while the speed stays (almost)
/// constant. Using it as the importance density lets particles hypothesize
/// turn sequences — essential for tracking the maneuvering target, which
/// the near-deterministic CV prior (sigma = 0.05) cannot follow.
class RandomTurnMotionModel final : public MotionModel {
 public:
  /// One sample() covers `dt` seconds as round(dt / substep_dt) sub-steps
  /// (the paper's ground truth turns every 1 s; the distributed filters
  /// iterate every 5 s, i.e. five sub-steps per prediction).
  RandomTurnMotionModel(double dt, double substep_dt, double max_turn_rad,
                        double speed_sigma_fraction);

  double dt() const override { return dt_; }
  double substep_dt() const { return substep_dt_; }
  double max_turn_rad() const { return max_turn_rad_; }

  TargetState propagate(const TargetState& state) const override;
  TargetState sample(const TargetState& state, rng::Rng& rng) const override;

  /// Same heading/speed random walk and RNG draws as sample(), but only the
  /// final substep's velocity is materialized (one sincos instead of one per
  /// substep, and no position integration).
  SampledKinematics sample_velocity(const TargetState& state,
                                    rng::Rng& rng) const override;

 private:
  double dt_;
  double substep_dt_;
  double max_turn_rad_;
  double speed_sigma_fraction_;
  std::size_t substeps_;
};

/// The importance density of every particle filter in the library: the
/// random-turn model with the paper's Section VI-A ground-truth parameters
/// (1 s substeps, turns uniform within +-15 degrees, speed sigma 2% per
/// substep), for a filter iterating every `dt` s. The constant-velocity
/// model of Eq. 5 is built directly by the filters that use it (KF, EKF,
/// UKF).
std::unique_ptr<MotionModel> make_motion_model(double dt);

}  // namespace cdpf::tracking
