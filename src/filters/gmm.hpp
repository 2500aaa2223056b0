// 2-D Gaussian mixture models fitted to weighted particle clouds.
//
// Sheng, Hu & Ramanathan's distributed particle filter (IPSN'05, the
// paper's reference [5]) compresses a clique's posterior into a small
// Gaussian mixture before transmitting it — the "parametric model" family
// of DPFs the paper contrasts CDPF with. This module provides the pieces:
// weighted EM fitting, density evaluation, sampling (for reconstructing a
// particle cloud from received parameters), and the packed wire size used
// by the communication accounting.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "filters/particle.hpp"
#include "geom/vec2.hpp"
#include "linalg/matrix.hpp"
#include "random/rng.hpp"

namespace cdpf::filters {

/// One mixture component over 2-D position.
struct Gaussian2D {
  geom::Vec2 mean;
  linalg::Mat2 covariance;  // symmetric positive definite
  double weight = 0.0;      // mixture weight

  double log_density(geom::Vec2 x) const;
  geom::Vec2 sample(rng::Rng& rng) const;
};

class GaussianMixture {
 public:
  GaussianMixture() = default;
  explicit GaussianMixture(std::vector<Gaussian2D> components);

  const std::vector<Gaussian2D>& components() const { return components_; }

  /// Draw one position from the mixture.
  geom::Vec2 sample(rng::Rng& rng) const;

  /// Bytes needed to transmit the mixture: per component the mean (2
  /// floats), the unique covariance entries (3 floats) and the weight
  /// (1 float) at 4 bytes each — 24 B per component.
  std::size_t packed_size_bytes() const { return components_.size() * 24; }

  /// Fit a k-component mixture to the particle POSITIONS by weighted EM,
  /// initialized with weighted k-means++ seeding. `k` is clamped to the
  /// number of distinct particles; covariances are floored for stability.
  /// Requires a positive total weight.
  static GaussianMixture fit(std::span<const Particle> particles, std::size_t k,
                             rng::Rng& rng, std::size_t em_iterations = 15);

 private:
  std::vector<Gaussian2D> components_;
};

}  // namespace cdpf::filters
