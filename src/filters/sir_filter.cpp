#include "filters/sir_filter.hpp"

#include <cmath>
#include <limits>

#include "support/check.hpp"
#include "support/statistics.hpp"

namespace cdpf::filters {

SirFilter::SirFilter(tracking::RandomTurnMotionModel model, SirFilterConfig config)
    : model_(model), config_(config) {
  CDPF_CHECK_MSG(config_.num_particles > 0, "SIR filter needs at least one particle");
}

void SirFilter::initialize(const tracking::TargetState& mean, geom::Vec2 position_sigma,
                           geom::Vec2 velocity_sigma, rng::Rng& rng) {
  particles_.clear();
  particles_.reserve(config_.num_particles);
  const double w = 1.0 / static_cast<double>(config_.num_particles);
  for (std::size_t i = 0; i < config_.num_particles; ++i) {
    tracking::TargetState s;
    s.position = {rng.gaussian(mean.position.x, position_sigma.x),
                  rng.gaussian(mean.position.y, position_sigma.y)};
    s.velocity = {rng.gaussian(mean.velocity.x, velocity_sigma.x),
                  rng.gaussian(mean.velocity.y, velocity_sigma.y)};
    particles_.push_back({s, w});
  }
}

void SirFilter::predict(rng::Rng& rng) {
  CDPF_CHECK_MSG(initialized(), "predict() before initialize()");
  for (Particle& p : particles_) {
    p.state = model_.sample(p.state, rng);
  }
}

double SirFilter::update(std::span<const double> log_likelihoods) {
  CDPF_CHECK_MSG(initialized(), "update() before initialize()");
  CDPF_CHECK_MSG(log_likelihoods.size() == particles_.size(),
                 "update() needs one log-likelihood per particle");
  double max_ll = -std::numeric_limits<double>::infinity();
  for (const double ll : log_likelihoods) {
    if (ll > max_ll) {
      max_ll = ll;
    }
  }
  support::NeumaierSum sum;
  if (std::isfinite(max_ll)) {
    for (std::size_t i = 0; i < particles_.size(); ++i) {
      particles_[i].weight *= std::exp(log_likelihoods[i] - max_ll);
      sum.add(particles_[i].weight);
    }
  }
  const double total = sum.value();
  if (total <= 0.0) {
    // Track lost: no particle with weight left explains the measurement.
    // Reset to uniform so the filter can re-acquire instead of dividing by
    // zero.
    const double w = 1.0 / static_cast<double>(particles_.size());
    for (Particle& p : particles_) {
      p.weight = w;
    }
    return -std::numeric_limits<double>::infinity();
  }
  normalize_weights(particles_, total);
  return max_ll;
}

void SirFilter::resample(rng::Rng& rng) {
  CDPF_CHECK_MSG(initialized(), "resample() before initialize()");
  resample_particles(particles_, config_.num_particles, config_.scheme, rng,
                     resample_scratch_);
}

tracking::TargetState SirFilter::estimate() const {
  CDPF_CHECK_MSG(initialized(), "estimate() before initialize()");
  return weighted_mean_state(particles_);
}

}  // namespace cdpf::filters
