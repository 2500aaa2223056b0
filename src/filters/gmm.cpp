#include "filters/gmm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "support/check.hpp"
#include "support/statistics.hpp"

namespace cdpf::filters {

namespace {

constexpr double kCovarianceFloor = 1e-4;  // m^2; keeps components proper

linalg::Mat2 floored(linalg::Mat2 cov) {
  cov = linalg::symmetrized(cov);
  cov(0, 0) = std::max(cov(0, 0), kCovarianceFloor);
  cov(1, 1) = std::max(cov(1, 1), kCovarianceFloor);
  // Clamp the correlation to keep the matrix positive definite.
  const double limit = 0.99 * std::sqrt(cov(0, 0) * cov(1, 1));
  cov(0, 1) = std::clamp(cov(0, 1), -limit, limit);
  cov(1, 0) = cov(0, 1);
  return cov;
}

// The terms of a component's log-density that do not depend on the point:
// EM's E step derives them once per component and iteration, not per point.
struct LogDensityTerms {
  linalg::Mat2 inverse;
  double log_normalizer = 0.0;  // -log 2π - ½·log det
};

LogDensityTerms log_density_terms(const Gaussian2D& g) {
  const double det = linalg::determinant(g.covariance);
  CDPF_ASSERT(det > 0.0);
  return {linalg::inverse(g.covariance),
          -std::log(2.0 * std::numbers::pi) - 0.5 * std::log(det)};
}

double log_density_at(const LogDensityTerms& terms, geom::Vec2 mean, geom::Vec2 x) {
  const linalg::Mat2& inv = terms.inverse;
  const geom::Vec2 d = x - mean;
  const double quad = d.x * (inv(0, 0) * d.x + inv(0, 1) * d.y) +
                      d.y * (inv(1, 0) * d.x + inv(1, 1) * d.y);
  return terms.log_normalizer - 0.5 * quad;
}

}  // namespace

double Gaussian2D::log_density(geom::Vec2 x) const {
  return log_density_at(log_density_terms(*this), mean, x);
}

geom::Vec2 Gaussian2D::sample(rng::Rng& rng) const {
  const linalg::Mat2 l = linalg::cholesky(covariance);
  const double z0 = rng.gaussian();
  const double z1 = rng.gaussian();
  return {mean.x + l(0, 0) * z0,
          mean.y + l(1, 0) * z0 + l(1, 1) * z1};
}

GaussianMixture::GaussianMixture(std::vector<Gaussian2D> components)
    : components_(std::move(components)) {
  support::NeumaierSum sum;
  for (const Gaussian2D& c : components_) {
    CDPF_CHECK_MSG(c.weight >= 0.0, "component weights must be non-negative");
    sum.add(c.weight);
  }
  const double total = sum.value();
  CDPF_CHECK_MSG(components_.empty() || total > 0.0,
                 "mixture needs positive total weight");
  for (Gaussian2D& c : components_) {
    c.weight /= total;
  }
}

geom::Vec2 GaussianMixture::sample(rng::Rng& rng) const {
  CDPF_CHECK_MSG(!components_.empty(), "cannot sample an empty mixture");
  std::vector<double> weights;
  weights.reserve(components_.size());
  for (const Gaussian2D& c : components_) {
    weights.push_back(c.weight);
  }
  return components_[rng.categorical(weights)].sample(rng);
}

GaussianMixture GaussianMixture::fit(std::span<const Particle> particles,
                                     std::size_t k, rng::Rng& rng,
                                     std::size_t em_iterations) {
  CDPF_CHECK_MSG(!particles.empty(), "cannot fit a mixture to no particles");
  CDPF_CHECK_MSG(k >= 1, "mixture needs at least one component");
  const double total = total_weight(particles);
  CDPF_CHECK_MSG(total > 0.0, "mixture fit needs positive particle mass");
  const std::size_t n = particles.size();
  k = std::min(k, n);

  // Weighted k-means++ seeding of the component means.
  std::vector<geom::Vec2> means;
  {
    std::vector<double> draw(n);
    for (std::size_t i = 0; i < n; ++i) {
      draw[i] = particles[i].weight;
    }
    means.push_back(particles[rng.categorical(draw)].state.position);
    while (means.size() < k) {
      for (std::size_t i = 0; i < n; ++i) {
        double nearest = std::numeric_limits<double>::infinity();
        for (const geom::Vec2 m : means) {
          nearest = std::min(nearest,
                             geom::distance_squared(particles[i].state.position, m));
        }
        draw[i] = particles[i].weight * nearest;
      }
      double mass = 0.0;
      for (const double d : draw) {
        mass += d;
      }
      if (mass <= 0.0) {
        break;  // all particles coincide with existing means
      }
      means.push_back(particles[rng.categorical(draw)].state.position);
    }
    k = means.size();
  }

  // Initialize equal weights and isotropic covariances from the global
  // spread.
  const PositionCovariance global = weighted_position_covariance(particles);
  linalg::Mat2 init_cov;
  init_cov(0, 0) = std::max(global.xx, kCovarianceFloor);
  init_cov(1, 1) = std::max(global.yy, kCovarianceFloor);
  std::vector<Gaussian2D> comps(k);
  for (std::size_t j = 0; j < k; ++j) {
    comps[j] = {means[j], init_cov, 1.0 / static_cast<double>(k)};
  }

  // Weighted EM on positions.
  std::vector<double> resp(n * k);
  std::vector<LogDensityTerms> terms(k);
  std::vector<double> log_weights(k);
  for (std::size_t iter = 0; iter < em_iterations; ++iter) {
    // E step.
    for (std::size_t j = 0; j < k; ++j) {
      terms[j] = log_density_terms(comps[j]);
      log_weights[j] = std::log(comps[j].weight + 1e-300);
    }
    for (std::size_t i = 0; i < n; ++i) {
      double max_log = -std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < k; ++j) {
        const double l = log_weights[j] +
                         log_density_at(terms[j], comps[j].mean, particles[i].state.position);
        resp[i * k + j] = l;
        max_log = std::max(max_log, l);
      }
      double sum = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        resp[i * k + j] = std::exp(resp[i * k + j] - max_log);
        sum += resp[i * k + j];
      }
      for (std::size_t j = 0; j < k; ++j) {
        resp[i * k + j] /= sum;
      }
    }
    // M step (weighted by particle weight * responsibility).
    for (std::size_t j = 0; j < k; ++j) {
      double mass = 0.0;
      geom::Vec2 mu{};
      for (std::size_t i = 0; i < n; ++i) {
        const double w = particles[i].weight * resp[i * k + j];
        mass += w;
        mu += particles[i].state.position * w;
      }
      if (mass <= 1e-12 * total) {
        // Dead component: re-seed it on the heaviest particle.
        const auto heaviest = std::max_element(
            particles.begin(), particles.end(),
            [](const Particle& a, const Particle& b) { return a.weight < b.weight; });
        comps[j] = {heaviest->state.position, init_cov, 1e-6};
        continue;
      }
      mu = mu / mass;
      linalg::Mat2 cov;
      for (std::size_t i = 0; i < n; ++i) {
        const double w = particles[i].weight * resp[i * k + j];
        const geom::Vec2 d = particles[i].state.position - mu;
        cov(0, 0) += w * d.x * d.x;
        cov(0, 1) += w * d.x * d.y;
        cov(1, 1) += w * d.y * d.y;
      }
      cov(1, 0) = cov(0, 1);
      comps[j].mean = mu;
      comps[j].covariance = floored(cov * (1.0 / mass));
      comps[j].weight = mass / total;
    }
  }
  return GaussianMixture(std::move(comps));
}

}  // namespace cdpf::filters
