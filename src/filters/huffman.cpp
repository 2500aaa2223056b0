#include "filters/huffman.hpp"

#include <algorithm>
#include <queue>

#include "support/check.hpp"

namespace cdpf::filters {

namespace {

/// Build per-symbol code lengths with the classic two-queue Huffman
/// construction over a min-heap of (frequency, node).
std::vector<std::uint8_t> huffman_lengths(std::span<const double> frequencies) {
  const std::size_t n = frequencies.size();
  if (n == 1) {
    return {1};  // a single symbol still needs one bit on the wire
  }
  struct Node {
    double freq;
    int left = -1;   // indices into the node pool; -1 => leaf
    int right = -1;
    std::size_t symbol = 0;
  };
  std::vector<Node> pool;
  pool.reserve(2 * n);
  using HeapEntry = std::pair<double, int>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  // Tiny epsilon keeps zero-frequency symbols encodable without distorting
  // the tree for the others.
  for (std::size_t s = 0; s < n; ++s) {
    pool.push_back({frequencies[s] + 1e-12, -1, -1, s});
    heap.emplace(pool.back().freq, static_cast<int>(pool.size() - 1));
  }
  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    pool.push_back({fa + fb, a, b, 0});
    heap.emplace(fa + fb, static_cast<int>(pool.size() - 1));
  }
  std::vector<std::uint8_t> lengths(n, 0);
  // Iterative depth-first traversal from the root.
  std::vector<std::pair<int, std::uint8_t>> stack{{heap.top().second, 0}};
  while (!stack.empty()) {
    const auto [index, depth] = stack.back();
    stack.pop_back();
    const Node& node = pool[static_cast<std::size_t>(index)];
    if (node.left < 0) {
      lengths[node.symbol] = std::max<std::uint8_t>(depth, 1);
    } else {
      stack.push_back({node.left, static_cast<std::uint8_t>(depth + 1)});
      stack.push_back({node.right, static_cast<std::uint8_t>(depth + 1)});
    }
  }
  return lengths;
}

}  // namespace

HuffmanCode HuffmanCode::from_frequencies(std::span<const double> frequencies) {
  CDPF_CHECK_MSG(!frequencies.empty(), "Huffman code needs at least one symbol");
  for (const double f : frequencies) {
    CDPF_CHECK_MSG(f >= 0.0, "frequencies must be non-negative");
  }
  HuffmanCode code;
  code.lengths_ = huffman_lengths(frequencies);
  return code;
}

std::size_t HuffmanCode::code_length(std::size_t symbol) const {
  CDPF_CHECK_MSG(symbol < lengths_.size(), "symbol out of range");
  return lengths_[symbol];
}

}  // namespace cdpf::filters
