// Unit + statistical tests for the deterministic RNG stack.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "random/engine.hpp"
#include "random/rng.hpp"
#include "support/check.hpp"

namespace cdpf::rng {
namespace {

TEST(SplitMix64, KnownReferenceSequence) {
  // Reference values for seed 1234567 from the public-domain splitmix64.
  SplitMix64 sm(1234567);
  EXPECT_EQ(sm(), 6457827717110365317ULL);
  EXPECT_EQ(sm(), 3203168211198807973ULL);
  EXPECT_EQ(sm(), 9817491932198370423ULL);
}

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256StarStar a(99), b(99);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256StarStar a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (a() == b());
  }
  EXPECT_LT(equal, 2);
}

TEST(StreamSeeds, AdjacentStreamsDecorrelated) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 1000; ++s) {
    seeds.insert(derive_stream_seed(42, s));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions among 1000 streams
}

TEST(Rng, UniformIsWithinUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMomentsMatch) {
  Rng rng(17);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 7.5);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 7.5);
  }
  EXPECT_THROW(rng.uniform(2.0, 1.0), Error);
}

TEST(Rng, GaussianMomentsMatch) {
  Rng rng(23);
  double sum = 0.0, sum_sq = 0.0, sum_cu = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
    sum_cu += g * g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
  EXPECT_NEAR(sum_cu / n, 0.0, 0.05);  // symmetry
}

TEST(Rng, GaussianScaling) {
  Rng rng(29);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian(10.0, 2.0);
    sum += g;
    sum_sq += (g - 10.0) * (g - 10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum_sq / n), 2.0, 0.05);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), Error);
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(31);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) {
    counts[rng.uniform_index(7)]++;
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 7.0, 4.0 * std::sqrt(n / 7.0));
  }
  EXPECT_THROW(rng.uniform_index(0), Error);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(41);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.bernoulli(0.3);
  }
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
  EXPECT_THROW(rng.bernoulli(1.5), Error);
}

TEST(Rng, CategoricalMatchesWeights) {
  Rng rng(43);
  const std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::array<int, 4> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    counts[rng.categorical(weights)]++;
  }
  EXPECT_EQ(counts[2], 0);  // zero weight never drawn
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, CategoricalRejectsInvalidWeights) {
  Rng rng(47);
  EXPECT_THROW(rng.categorical({}), Error);
  EXPECT_THROW(rng.categorical({0.0, 0.0}), Error);
  EXPECT_THROW(rng.categorical({1.0, -0.5}), Error);
}

}  // namespace
}  // namespace cdpf::rng
