// Unit tests for particle-set utilities.
#include <gtest/gtest.h>

#include <vector>

#include "filters/particle.hpp"
#include "support/check.hpp"

namespace cdpf::filters {
namespace {

std::vector<Particle> three_particles() {
  return {{{{0.0, 0.0}, {1.0, 0.0}}, 1.0},
          {{{2.0, 0.0}, {0.0, 1.0}}, 2.0},
          {{{0.0, 3.0}, {1.0, 1.0}}, 1.0}};
}

TEST(ParticleSet, TotalWeight) {
  auto p = three_particles();
  EXPECT_DOUBLE_EQ(total_weight(p), 4.0);
  EXPECT_DOUBLE_EQ(total_weight(std::vector<Particle>{}), 0.0);
}

TEST(ParticleSet, NormalizeByExplicitTotal) {
  auto p = three_particles();
  normalize_weights(p, 4.0);
  EXPECT_DOUBLE_EQ(total_weight(p), 1.0);
  EXPECT_DOUBLE_EQ(p[1].weight, 0.5);
  EXPECT_THROW(normalize_weights(p, 0.0), Error);
}

TEST(ParticleSet, EffectiveSampleSizeBounds) {
  // Uniform weights: ESS == N. Degenerate: ESS == 1.
  std::vector<Particle> uniform(10, Particle{{{0.0, 0.0}, {0.0, 0.0}}, 0.1});
  EXPECT_NEAR(effective_sample_size(uniform), 10.0, 1e-9);
  std::vector<Particle> degenerate(10, Particle{{{0.0, 0.0}, {0.0, 0.0}}, 0.0});
  degenerate[3].weight = 1.0;
  EXPECT_NEAR(effective_sample_size(degenerate), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(effective_sample_size(std::vector<Particle>{}), 0.0);
}

TEST(ParticleSet, WeightedMeanState) {
  auto p = three_particles();
  const tracking::TargetState mean = weighted_mean_state(p);
  EXPECT_NEAR(mean.position.x, (0.0 + 2.0 * 2.0 + 0.0) / 4.0, 1e-12);
  EXPECT_NEAR(mean.position.y, 3.0 / 4.0, 1e-12);
  EXPECT_NEAR(mean.velocity.x, (1.0 + 0.0 + 1.0) / 4.0, 1e-12);
  std::vector<Particle> zero{{{{1.0, 1.0}, {0.0, 0.0}}, 0.0}};
  EXPECT_THROW(weighted_mean_state(zero), Error);
}

}  // namespace
}  // namespace cdpf::filters
