// Unit tests for Gaussian mixtures (EM fitting, sampling).
#include <gtest/gtest.h>

#include <cmath>

#include "filters/gmm.hpp"
#include "random/rng.hpp"
#include "support/check.hpp"

namespace cdpf::filters {
namespace {

Gaussian2D isotropic(geom::Vec2 mean, double variance, double weight) {
  linalg::Mat2 cov;
  cov(0, 0) = variance;
  cov(1, 1) = variance;
  return {mean, cov, weight};
}

TEST(Gaussian2D, DensityPeaksAtMean) {
  const Gaussian2D g = isotropic({3.0, 4.0}, 2.0, 1.0);
  EXPECT_GT(g.log_density({3.0, 4.0}), g.log_density({4.0, 4.0}));
  EXPECT_GT(g.log_density({4.0, 4.0}), g.log_density({6.0, 4.0}));
  // Normalization: density at the mean of an isotropic Gaussian.
  EXPECT_NEAR(std::exp(g.log_density({3.0, 4.0})),
              1.0 / (2.0 * 3.14159265358979 * 2.0), 1e-9);
}

TEST(Gaussian2D, SampleMomentsMatch) {
  const Gaussian2D g = isotropic({-2.0, 5.0}, 4.0, 1.0);
  rng::Rng rng(1);
  double sx = 0.0, sy = 0.0, vx = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const geom::Vec2 p = g.sample(rng);
    sx += p.x;
    sy += p.y;
    vx += (p.x + 2.0) * (p.x + 2.0);
  }
  EXPECT_NEAR(sx / n, -2.0, 0.05);
  EXPECT_NEAR(sy / n, 5.0, 0.05);
  EXPECT_NEAR(vx / n, 4.0, 0.1);
}

TEST(GaussianMixture, WeightsAreNormalizedOnConstruction) {
  GaussianMixture mixture(
      {isotropic({0.0, 0.0}, 1.0, 2.0), isotropic({5.0, 0.0}, 1.0, 6.0)});
  EXPECT_DOUBLE_EQ(mixture.components()[0].weight, 0.25);
  EXPECT_DOUBLE_EQ(mixture.components()[1].weight, 0.75);
}

TEST(GaussianMixture, FitRecoversTwoSeparatedClusters) {
  rng::Rng rng(2);
  std::vector<Particle> particles;
  const geom::Vec2 a{10.0, 10.0}, b{40.0, 30.0};
  for (int i = 0; i < 400; ++i) {
    const geom::Vec2 center = (i % 4 == 0) ? a : b;  // 25% / 75% split
    particles.push_back({{{rng.gaussian(center.x, 1.0), rng.gaussian(center.y, 1.0)},
                          {}},
                         1.0});
  }
  const GaussianMixture mixture = GaussianMixture::fit(particles, 2, rng);
  ASSERT_EQ(mixture.components().size(), 2u);
  // One component near each cluster, weights near the 25/75 split.
  double best_a = 1e9, best_b = 1e9;
  double weight_b = 0.0;
  for (const Gaussian2D& c : mixture.components()) {
    best_a = std::min(best_a, geom::distance(c.mean, a));
    if (geom::distance(c.mean, b) < geom::distance(c.mean, a)) {
      weight_b = c.weight;
    }
    best_b = std::min(best_b, geom::distance(c.mean, b));
  }
  EXPECT_LT(best_a, 1.0);
  EXPECT_LT(best_b, 1.0);
  EXPECT_NEAR(weight_b, 0.75, 0.1);
}

TEST(GaussianMixture, FitRespectsParticleWeights) {
  rng::Rng rng(3);
  std::vector<Particle> particles;
  // Equal counts but 9:1 mass in favor of the right cluster.
  for (int i = 0; i < 200; ++i) {
    const bool right = (i % 2 == 0);
    particles.push_back(
        {{{rng.gaussian(right ? 30.0 : 0.0, 1.0), rng.gaussian(0.0, 1.0)}, {}},
         right ? 9.0 : 1.0});
  }
  const GaussianMixture mixture = GaussianMixture::fit(particles, 2, rng);
  double right_weight = 0.0;
  for (const Gaussian2D& c : mixture.components()) {
    if (c.mean.x > 15.0) {
      right_weight += c.weight;
    }
  }
  EXPECT_NEAR(right_weight, 0.9, 0.05);
}

TEST(GaussianMixture, SampleFitRoundTripPreservesShape) {
  rng::Rng rng(4);
  GaussianMixture original(
      {isotropic({0.0, 0.0}, 4.0, 0.5), isotropic({20.0, 0.0}, 1.0, 0.5)});
  std::vector<Particle> resampled;
  for (int i = 0; i < 2000; ++i) {
    resampled.push_back({{original.sample(rng), {}}, 1.0});
  }
  const GaussianMixture refit = GaussianMixture::fit(resampled, 2, rng);
  double mean_x = 0.0;
  for (const Gaussian2D& c : refit.components()) {
    mean_x += c.weight * c.mean.x;
  }
  EXPECT_NEAR(mean_x, 10.0, 1.0);
}

TEST(GaussianMixture, PackedSizeIsPerComponent) {
  GaussianMixture mixture(
      {isotropic({0.0, 0.0}, 1.0, 1.0), isotropic({1.0, 1.0}, 1.0, 1.0),
       isotropic({2.0, 2.0}, 1.0, 1.0)});
  EXPECT_EQ(mixture.packed_size_bytes(), 72u);
}

TEST(GaussianMixture, KClampedToParticleCount) {
  rng::Rng rng(5);
  std::vector<Particle> two{{{{0.0, 0.0}, {}}, 1.0}, {{{9.0, 9.0}, {}}, 1.0}};
  const GaussianMixture mixture = GaussianMixture::fit(two, 5, rng);
  EXPECT_LE(mixture.components().size(), 2u);
  EXPECT_THROW(GaussianMixture::fit({}, 2, rng), Error);
}

}  // namespace
}  // namespace cdpf::filters
