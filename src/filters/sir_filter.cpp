#include "filters/sir_filter.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"
#include "support/statistics.hpp"

namespace cdpf::filters {

SirFilter::SirFilter(std::unique_ptr<const tracking::MotionModel> model,
                     SirFilterConfig config)
    : model_(std::move(model)), config_(config) {
  CDPF_CHECK_MSG(model_ != nullptr, "SIR filter needs a motion model");
  CDPF_CHECK_MSG(config_.num_particles > 0, "SIR filter needs at least one particle");
  CDPF_CHECK_MSG(
      config_.ess_threshold_fraction > 0.0 && config_.ess_threshold_fraction <= 1.0,
      "ESS threshold fraction must be within (0, 1]");
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

void SirFilter::initialize(std::vector<Particle> particles) {
  CDPF_CHECK_MSG(!particles.empty(), "cannot initialize from an empty particle set");
  particles_ = std::move(particles);
  normalize_weights(particles_);
}

void SirFilter::predict(rng::Rng& rng) {
  CDPF_CHECK_MSG(initialized(), "predict() before initialize()");
  for (Particle& p : particles_) {
    p.state = model_->sample(p.state, rng);
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
  if (!std::isfinite(max_ll)) {
    // Track lost: no particle explains the measurement. Reset to uniform so
    // the filter can re-acquire instead of dividing by zero.
    const double w = 1.0 / static_cast<double>(particles_.size());
    for (Particle& p : particles_) {
      p.weight = w;
    }
    return -std::numeric_limits<double>::infinity();
  }
  support::NeumaierSum sum;
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    particles_[i].weight *= std::exp(log_likelihoods[i] - max_ll);
    sum.add(particles_[i].weight);
  }
  const double total = sum.value();
  if (total <= 0.0) {
    const double w = 1.0 / static_cast<double>(particles_.size());
    for (Particle& p : particles_) {
      p.weight = w;
    }
    return -std::numeric_limits<double>::infinity();
  }
  normalize_weights(particles_, total);
  return max_ll;
}

bool SirFilter::maybe_resample(rng::Rng& rng) {
  CDPF_CHECK_MSG(initialized(), "maybe_resample() before initialize()");
  const bool should =
      config_.resample_every_step ||
      ess() < config_.ess_threshold_fraction * static_cast<double>(particles_.size());
  if (should) {
    resample_particles(particles_, config_.num_particles, config_.scheme, rng,
                       resample_scratch_);
    if (config_.regularize) {
      // Silverman's rule for a Gaussian kernel in d = 2 (position) resp.
      // d = 2 (velocity), applied per axis: h = A * sigma * N^(-1/(d+4)),
      // A = (4 / (d + 2))^(1/(d+4)).
      const double n = static_cast<double>(particles_.size());
      const double a = std::pow(4.0 / 4.0, 1.0 / 6.0);  // d = 2
      const double shrink = a * std::pow(n, -1.0 / 6.0);
      const PositionCovariance cov = weighted_position_covariance(particles_);
      const double hx = shrink * std::sqrt(std::max(cov.xx, 1e-12));
      const double hy = shrink * std::sqrt(std::max(cov.yy, 1e-12));
      // Velocity spread, for jittering the velocity components too.
      tracking::TargetState mean = weighted_mean_state(particles_);
      double vxx = 0.0, vyy = 0.0;
      for (const Particle& p : particles_) {
        const geom::Vec2 dv = p.state.velocity - mean.velocity;
        vxx += p.weight * dv.x * dv.x;
        vyy += p.weight * dv.y * dv.y;
      }
      const double total = total_weight(particles_);
      const double hvx = shrink * std::sqrt(std::max(vxx / total, 1e-12));
      const double hvy = shrink * std::sqrt(std::max(vyy / total, 1e-12));
      for (Particle& p : particles_) {
        p.state.position.x += rng.gaussian(0.0, hx);
        p.state.position.y += rng.gaussian(0.0, hy);
        p.state.velocity.x += rng.gaussian(0.0, hvx);
        p.state.velocity.y += rng.gaussian(0.0, hvy);
      }
    }
  }
  return should;
}

tracking::TargetState SirFilter::estimate() const {
  CDPF_CHECK_MSG(initialized(), "estimate() before initialize()");
  return weighted_mean_state(particles_);
}

}  // namespace cdpf::filters
