// Unit + statistical tests for the four resampling schemes, including the
// unbiasedness property every scheme must satisfy (parameterized sweep).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "filters/resampling.hpp"
#include "support/check.hpp"

namespace cdpf::filters {
namespace {

const ResamplingScheme kSchemes[] = {
    ResamplingScheme::kMultinomial, ResamplingScheme::kStratified,
    ResamplingScheme::kSystematic, ResamplingScheme::kResidual};

/// resample_indices_into through buffers reused from call to call, as the
/// filters call it every iteration.
struct Resampler {
  std::vector<std::size_t> indices;
  std::vector<double> scratch;

  const std::vector<std::size_t>& operator()(std::span<const double> weights,
                                             std::size_t count, ResamplingScheme scheme,
                                             rng::Rng& rng) {
    resample_indices_into(weights, count, scheme, rng, indices, scratch);
    return indices;
  }
};

class ResamplingSchemes : public ::testing::TestWithParam<ResamplingScheme> {
 protected:
  Resampler draw;
};

TEST_P(ResamplingSchemes, IndicesAreInRangeAndCounted) {
  rng::Rng rng(201);
  const std::vector<double> weights{0.1, 0.4, 0.2, 0.3};
  const auto indices = draw(weights, 100, GetParam(), rng);
  EXPECT_EQ(indices.size(), 100u);
  for (const std::size_t i : indices) {
    EXPECT_LT(i, weights.size());
  }
}

TEST_P(ResamplingSchemes, ZeroWeightNeverSelected) {
  rng::Rng rng(203);
  const std::vector<double> weights{0.5, 0.0, 0.5};
  for (int round = 0; round < 50; ++round) {
    for (const std::size_t i : draw(weights, 64, GetParam(), rng)) {
      EXPECT_NE(i, 1u);
    }
  }
}

TEST_P(ResamplingSchemes, DegenerateWeightAlwaysSelected) {
  rng::Rng rng(205);
  const std::vector<double> weights{0.0, 0.0, 7.5, 0.0};
  for (const std::size_t i : draw(weights, 32, GetParam(), rng)) {
    EXPECT_EQ(i, 2u);
  }
}

TEST_P(ResamplingSchemes, UnbiasedOffspringCounts) {
  // E[#offspring of i] = count * w_i / total for every scheme.
  rng::Rng rng(207);
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};  // total 10
  const std::size_t count = 100;
  const int rounds = 4000;
  std::vector<double> offspring(weights.size(), 0.0);
  for (int r = 0; r < rounds; ++r) {
    for (const std::size_t i : draw(weights, count, GetParam(), rng)) {
      offspring[i] += 1.0;
    }
  }
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = count * weights[i] / 10.0;
    EXPECT_NEAR(offspring[i] / rounds, expected, expected * 0.02)
        << resampling_scheme_name(GetParam()) << " index " << i;
  }
}

TEST_P(ResamplingSchemes, UnnormalizedWeightsAccepted) {
  rng::Rng rng(209);
  const std::vector<double> weights{10.0, 30.0};
  const auto indices = draw(weights, 1000, GetParam(), rng);
  const auto ones = static_cast<double>(
      std::count(indices.begin(), indices.end(), std::size_t{1}));
  EXPECT_NEAR(ones / 1000.0, 0.75, 0.1);
}

TEST_P(ResamplingSchemes, InvalidInputsThrow) {
  rng::Rng rng(211);
  EXPECT_THROW(draw({}, 10, GetParam(), rng), Error);
  EXPECT_THROW(draw(std::vector<double>{0.0}, 10, GetParam(), rng), Error);
  EXPECT_THROW(draw(std::vector<double>{-1.0, 2.0}, 10, GetParam(), rng),
               Error);
  EXPECT_THROW(draw(std::vector<double>{1.0}, 0, GetParam(), rng), Error);
}

TEST_P(ResamplingSchemes, ParticleResamplingPreservesMass) {
  rng::Rng rng(213);
  std::vector<Particle> particles{{{{0.0, 0.0}, {}}, 2.0},
                                  {{{1.0, 0.0}, {}}, 6.0},
                                  {{{2.0, 0.0}, {}}, 4.0}};
  ResampleScratch scratch;
  resample_particles(particles, 10, GetParam(), rng, scratch);
  EXPECT_EQ(particles.size(), 10u);
  EXPECT_NEAR(total_weight(particles), 12.0, 1e-9);
  for (const Particle& p : particles) {
    EXPECT_NEAR(p.weight, 1.2, 1e-12);  // equal weights after resampling
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ResamplingSchemes, ::testing::ValuesIn(kSchemes),
                         [](const auto& param_info) {
                           return std::string(resampling_scheme_name(param_info.param));
                         });

TEST(Resampling, ResidualDeterministicPart) {
  // With weights {0.5, 0.5} and count 4, residual resampling copies each
  // ancestor exactly twice — no randomness involved.
  rng::Rng rng(215);
  Resampler draw;
  const auto& indices =
      draw(std::vector<double>{0.5, 0.5}, 4, ResamplingScheme::kResidual, rng);
  EXPECT_EQ(std::count(indices.begin(), indices.end(), std::size_t{0}), 2);
  EXPECT_EQ(std::count(indices.begin(), indices.end(), std::size_t{1}), 2);
}

TEST(Resampling, SystematicHasLowerVarianceThanMultinomial) {
  rng::Rng rng(217);
  Resampler draw;
  const std::vector<double> weights{0.25, 0.25, 0.25, 0.25};
  auto offspring_variance = [&](ResamplingScheme scheme) {
    double var = 0.0;
    const int rounds = 2000;
    for (int r = 0; r < rounds; ++r) {
      std::vector<int> counts(4, 0);
      for (const std::size_t i : draw(weights, 16, scheme, rng)) {
        counts[i]++;
      }
      for (const int c : counts) {
        var += (c - 4.0) * (c - 4.0);
      }
    }
    return var / rounds;
  };
  // Uniform weights: systematic produces exactly 4 copies each (variance 0).
  EXPECT_LT(offspring_variance(ResamplingScheme::kSystematic),
            offspring_variance(ResamplingScheme::kMultinomial));
}

TEST(Resampling, SchemeNames) {
  EXPECT_EQ(resampling_scheme_name(ResamplingScheme::kSystematic), "systematic");
  EXPECT_EQ(resampling_scheme_name(ResamplingScheme::kResidual), "residual");
}

}  // namespace
}  // namespace cdpf::filters
