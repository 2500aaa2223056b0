// Generic sampling-importance-resampling (SIR) particle filter.
//
// This is the "generic PF" of the paper's Section II-A with the SIR
// specialization the paper adopts for all evaluated algorithms: the prior
// p(x_k | x_{k-1}) is the importance density and resampling runs every
// iteration.
//
// The measurement update takes one log-likelihood per particle, scored by
// the caller in whatever batch suits it (CPF scores every particle's
// position through core::BearingEvidence in one call), so one
// filter implementation serves bearings-only tracking, multi-sensor fusion
// and the tests' synthetic models. Updates are performed in the log domain
// with max-subtraction so products over many sensors cannot underflow.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "filters/particle.hpp"
#include "filters/resampling.hpp"
#include "random/rng.hpp"
#include "tracking/motion_model.hpp"

namespace cdpf::filters {

struct SirFilterConfig {
  std::size_t num_particles = 1000;  // paper: N_s = 1000 for CPF
  ResamplingScheme scheme = ResamplingScheme::kSystematic;
};

class SirFilter {
 public:
  /// `model` is the proposal distribution (the prior).
  SirFilter(tracking::RandomTurnMotionModel model, SirFilterConfig config);

  const tracking::RandomTurnMotionModel& motion_model() const { return model_; }
  const std::vector<Particle>& particles() const { return particles_; }

  /// Draw the initial particle cloud from a Gaussian prior around `mean`.
  void initialize(const tracking::TargetState& mean, geom::Vec2 position_sigma,
                  geom::Vec2 velocity_sigma, rng::Rng& rng);

  bool initialized() const { return !particles_.empty(); }

  /// Prediction step: propagate every particle through the motion model.
  void predict(rng::Rng& rng);

  /// Update step: multiply the weight of particles()[i] by
  /// exp(log_likelihoods[i]) and normalize. Returns the pre-normalization
  /// max log-likelihood (a diagnostic for track loss). If all likelihoods
  /// vanish, the weights are reset to uniform (standard track-recovery
  /// fallback) and -inf returned.
  double update(std::span<const double> log_likelihoods);

  /// Resampling step, run every iteration: draws the configured number of
  /// particles by the configured scheme.
  void resample(rng::Rng& rng);

  /// Weighted-mean state estimate.
  tracking::TargetState estimate() const;

  double ess() const { return effective_sample_size(particles_); }

 private:
  tracking::RandomTurnMotionModel model_;
  SirFilterConfig config_;
  std::vector<Particle> particles_;
  // Per-step buffer, a member so steady-state iterations do not allocate.
  ResampleScratch resample_scratch_;
};

}  // namespace cdpf::filters
