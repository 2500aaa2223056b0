// Unit + statistical tests for the deterministic RNG stack.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
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

TEST(Rng, UniformNormalPairsMatchSequentialCalls) {
  // A batch of n (uniform, normal) pairs returns what n sequential
  // uniform(), gaussian() call pairs return, bit for bit, and leaves the
  // stream where they leave it: the next gaussian() (the cached second half
  // of a pair, or a fresh pair) and the next uniform() agree. Both parities
  // of the cached normal at entry, every short length (odd and even, so the
  // batch ends on either half of a pair), and lengths past a few hundred.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 41; ++n) {
    lengths.push_back(n);
  }
  lengths.push_back(256);
  lengths.push_back(1001);
  for (const bool cached : {false, true}) {
    for (const std::size_t n : lengths) {
      SCOPED_TRACE(::testing::Message() << "n " << n << (cached ? ", cached" : ""));
      Rng batch(77 + n);
      Rng sequential(77 + n);
      batch.uniform();
      sequential.uniform();
      if (cached) {
        // One gaussian() leaves the second half of its pair cached.
        ASSERT_EQ(batch.gaussian(), sequential.gaussian());
      }
      std::vector<double> uniforms(n);
      std::vector<double> normals(n);
      batch.uniform_normal_pairs(uniforms, normals);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(uniforms[i]),
                  std::bit_cast<std::uint64_t>(sequential.uniform()))
            << "uniform " << i;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(normals[i]),
                  std::bit_cast<std::uint64_t>(sequential.gaussian()))
            << "normal " << i;
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch.gaussian()),
                std::bit_cast<std::uint64_t>(sequential.gaussian()));
      EXPECT_EQ(batch.uniform(), sequential.uniform());
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch.gaussian()),
                std::bit_cast<std::uint64_t>(sequential.gaussian()));
    }
  }
  Rng rng(1);
  std::vector<double> three(3);
  std::vector<double> two(2);
  EXPECT_THROW(rng.uniform_normal_pairs(three, two), Error);
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

}  // namespace
}  // namespace cdpf::rng
