// Huffman coding of quantized measurements.
//
// Ing & Coates ("Parallel particle filters for tracking in wireless sensor
// networks", SPAWC 2005 — the paper's reference [12]) improve the quantized
// DPF by entropy-coding the measurement symbols with a Huffman tree built
// from their (predicted) distribution: innovations concentrate near zero,
// so frequent symbols get short codewords and the average payload drops
// well below the fixed ceil(log2(L)) bits of plain quantization.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cdpf::filters {

/// Huffman code over symbols 0..n-1, kept as its codeword lengths: the
/// adaptive-encoding DPF charges each measurement its codeword's length in
/// bits and never materializes the bits themselves.
class HuffmanCode {
 public:
  /// Build from (unnormalized) symbol frequencies; zero-frequency symbols
  /// still receive a (long) codeword so every symbol stays encodable.
  /// Requires at least one symbol.
  static HuffmanCode from_frequencies(std::span<const double> frequencies);

  /// Codeword length in bits for `symbol`.
  std::size_t code_length(std::size_t symbol) const;

 private:
  HuffmanCode() = default;

  std::vector<std::uint8_t> lengths_;  // codeword length per symbol
};

}  // namespace cdpf::filters
