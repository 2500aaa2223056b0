// Deterministic, cross-platform pseudo-random engines.
//
// We implement splitmix64 (for seed expansion / stream derivation) and
// xoshiro256** 1.0 (the workhorse generator) instead of relying on
// std::mt19937 so results are bit-identical across standard libraries and
// so independent streams can be derived cheaply for parallel Monte-Carlo
// trials. Both algorithms are the public-domain reference constructions of
// Blackman & Vigna.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace cdpf::rng {

/// splitmix64: a tiny 64-bit generator whose main role here is turning one
/// user seed into well-distributed state words for xoshiro and into
/// statistically independent sub-stream seeds.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t operator()() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 256-bit-state generator. Satisfies
/// UniformRandomBitGenerator so it composes with <random> if ever needed,
/// though cdpf::rng::Rng provides its own distributions for determinism.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via splitmix64 as recommended by the
  /// authors (avoids the all-zero state for any seed).
  explicit constexpr Xoshiro256StarStar(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& word : state_) {
      word = sm();
    }
  }

  constexpr std::uint64_t operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Derive the seed of the `stream`-th independent sub-stream of `root_seed`.
/// Used so trial t / node n get reproducible generators regardless of the
/// number of worker threads executing them.
constexpr std::uint64_t derive_stream_seed(std::uint64_t root_seed, std::uint64_t stream) {
  SplitMix64 sm(root_seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  // A couple of extra rounds decorrelate adjacent stream indices.
  sm();
  return sm();
}

}  // namespace cdpf::rng
