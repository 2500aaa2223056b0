// Unit tests for Huffman code lengths and the adaptive-encoding DPF variant
// (Ing & Coates, paper reference [12]).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/cpf.hpp"
#include "filters/huffman.hpp"
#include "random/rng.hpp"
#include "sim/experiment.hpp"
#include "support/check.hpp"
#include "wsn/deployment.hpp"

namespace cdpf {
namespace {

/// Kraft sum of a code's lengths over its `alphabet` symbols: the sum of
/// 2^-length. A Huffman tree is full, so the sum is exactly 1 for any
/// alphabet of two or more symbols (each term is a power of two, so the sum
/// is exact in double).
double kraft_sum(const filters::HuffmanCode& code, std::size_t alphabet) {
  double sum = 0.0;
  for (std::size_t s = 0; s < alphabet; ++s) {
    sum += std::ldexp(1.0, -static_cast<int>(code.code_length(s)));
  }
  return sum;
}

TEST(Huffman, SkewedDistributionGetsShortFrequentCodes) {
  const std::vector<double> freq{80.0, 10.0, 6.0, 4.0};
  const auto code = filters::HuffmanCode::from_frequencies(freq);
  EXPECT_LE(code.code_length(0), code.code_length(1));
  EXPECT_LE(code.code_length(1), code.code_length(3));
  EXPECT_EQ(code.code_length(0), 1u);  // the dominant symbol gets one bit
}

TEST(Huffman, CodeLengthsSatisfyKraftEquality) {
  rng::Rng rng(41);
  for (std::size_t n = 2; n <= 40; ++n) {
    std::vector<double> freq(n);
    for (double& f : freq) {
      f = rng.uniform(0.0, 100.0);
    }
    const auto code = filters::HuffmanCode::from_frequencies(freq);
    EXPECT_EQ(kraft_sum(code, n), 1.0) << n << " symbols";
  }
  const auto geometric = filters::HuffmanCode::from_frequencies(
      std::vector<double>{50.0, 25.0, 12.0, 6.0, 4.0, 2.0, 1.0});
  EXPECT_EQ(kraft_sum(geometric, 7), 1.0);
}

TEST(Huffman, UniformDistributionCostsLog2N) {
  const std::vector<double> uniform(8, 1.0);
  const auto code = filters::HuffmanCode::from_frequencies(uniform);
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(code.code_length(s), 3u);
  }
}

TEST(Huffman, SingleSymbolAlphabet) {
  // A single symbol still needs one bit on the wire.
  const auto code = filters::HuffmanCode::from_frequencies(std::vector<double>{5.0});
  EXPECT_EQ(code.code_length(0), 1u);
}

TEST(Huffman, ZeroFrequencySymbolsRemainEncodable) {
  // Zero-frequency symbols keep a codeword: every symbol has a finite length
  // and the code stays complete.
  const std::vector<double> freq{100.0, 0.0, 0.0};
  const auto code = filters::HuffmanCode::from_frequencies(freq);
  EXPECT_EQ(code.code_length(0), 1u);
  EXPECT_EQ(code.code_length(1), 2u);
  EXPECT_EQ(code.code_length(2), 2u);
  EXPECT_EQ(kraft_sum(code, 3), 1.0);
  const auto all_zero =
      filters::HuffmanCode::from_frequencies(std::vector<double>(5, 0.0));
  EXPECT_EQ(kraft_sum(all_zero, 5), 1.0);
}

TEST(Huffman, InvalidInputsRejected) {
  EXPECT_THROW(filters::HuffmanCode::from_frequencies({}), Error);
  EXPECT_THROW(filters::HuffmanCode::from_frequencies(std::vector<double>{1.0, -1.0}),
               Error);
}

TEST(AdaptiveEncoding, ShrinksBytesWithoutLosingTheTrack) {
  sim::Scenario scenario;
  scenario.density_per_100m2 = 10.0;
  rng::Rng rng_a(rng::derive_stream_seed(43, 0));
  rng::Rng rng_b(rng::derive_stream_seed(43, 0));

  auto run = [&scenario](core::CpfConfig config, rng::Rng& rng, double* bits) {
    wsn::Network network = sim::build_network(scenario, rng);
    wsn::Radio radio(network, scenario.payloads);
    const tracking::Trajectory trajectory =
        tracking::generate_random_turn_trajectory(scenario.trajectory, rng);
    core::CentralizedPf tracker(network, radio, config);
    const sim::RunOutcome outcome = sim::run_tracking(tracker, trajectory, rng);
    if (bits != nullptr) {
      *bits = tracker.mean_bits_per_measurement();
    }
    return outcome;
  };

  core::CpfConfig quantized;
  quantized.quantization_levels = 4096;  // 2-byte fixed words
  core::CpfConfig adaptive = quantized;
  adaptive.adaptive_encoding = true;

  const auto plain = run(quantized, rng_a, nullptr);
  double bits = 0.0;
  const auto coded = run(adaptive, rng_b, &bits);

  ASSERT_TRUE(coded.produced_estimates());
  EXPECT_LT(coded.rmse(), 2.0 * plain.rmse() + 1.0);  // same fidelity class
  // Innovations need fewer bits than the fixed 12-bit words (their
  // entropy: the innovation spans ~sigma_inn, not the whole circle).
  EXPECT_GT(bits, 0.0);
  EXPECT_LT(bits, 12.0);
  // At 12-bit fidelity the fixed words cost 2 bytes while nearly every
  // innovation codeword fits in 1: the adaptive variant transmits strictly
  // fewer measurement bytes.
  EXPECT_LT(coded.comm.bytes(wsn::MessageKind::kMeasurement),
            plain.comm.bytes(wsn::MessageKind::kMeasurement));
}

TEST(AdaptiveEncoding, RequiresQuantization) {
  sim::Scenario scenario;
  scenario.density_per_100m2 = 5.0;
  rng::Rng rng(44);
  wsn::Network network = sim::build_network(scenario, rng);
  wsn::Radio radio(network, scenario.payloads);
  core::CpfConfig config;
  config.adaptive_encoding = true;  // but no quantization_levels
  EXPECT_THROW(core::CentralizedPf(network, radio, config), Error);
}

}  // namespace
}  // namespace cdpf
