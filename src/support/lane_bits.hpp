// Bit masks over blocks of up to 64 lanes, for the batch kernels that
// answer each point or node of a block with one bit.
//
// A kernel that ORs lane j's bit into a mask must not shift by j: SSE2 has
// no per-lane variable shift, so `1 << j` keeps the baseline clone from
// vectorizing. It ANDs kLaneBits[j] with an all-ones or all-zero lane
// instead. pack_bytes turns a block of 0/1 bytes (the network's activity
// bytes) into the same layout, so a mask and the bytes combine with one AND.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "support/check.hpp"

namespace cdpf::support {

/// kLaneBits[j] has bit j set and no other.
inline constexpr std::array<std::uint64_t, 64> kLaneBits = [] {
  std::array<std::uint64_t, 64> bits{};
  for (std::size_t j = 0; j < bits.size(); ++j) {
    bits[j] = std::uint64_t{1} << j;
  }
  return bits;
}();

/// Bit j set when bytes[j] is 1, for n <= 64 bytes that are each 0 or 1.
/// Eight bytes at a time: the product of a (little-endian) word of 0/1
/// bytes and 0x0102040810204080 carries byte j's bit to bit 56 + j, and no
/// two partial products meet.
inline std::uint64_t pack_bytes(const std::uint8_t* bytes, std::size_t n) {
  static_assert(std::endian::native == std::endian::little);
  CDPF_ASSERT(n <= kLaneBits.size());
  std::uint64_t mask = 0;
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + j, sizeof(word));
    mask |= ((word * 0x0102040810204080ULL) >> 56) << j;
  }
  for (; j < n; ++j) {
    mask |= std::uint64_t{bytes[j]} << j;
  }
  return mask;
}

}  // namespace cdpf::support
