#include "geom/grid_index.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "support/check.hpp"
#include "support/kernel_clones.hpp"
#include "support/lane_bits.hpp"

namespace cdpf::geom {

namespace {

/// Bit k set when the point (xs[k], ys[k]) passes visit_disk's test
/// d^2 <= r2, for the n <= 64 slots of a block, with d^2 rounded as
/// visit_disk rounds it (no contraction: the file is compiled with
/// CDPF_BATCH_KERNEL_FLAGS). The comparison is the sign of r2 - d^2 (+0 when
/// they are equal); the caller passes no NaN. Every lane is computed, so
/// the loop has no data-dependent branch, and only 64-bit lanes are mixed,
/// so every clone vectorizes at full width (a byte lane would not: AVX-512F
/// has no byte-vector widening or narrowing).
CDPF_KERNEL_CLONES
std::uint64_t within_mask(const double* __restrict xs, const double* __restrict ys,
                          std::size_t n, double cx, double cy, double r2) {
  CDPF_ASSERT(n <= support::kLaneBits.size());
  std::uint64_t mask = 0;
  for (std::size_t k = 0; k < n; ++k) {  // cdpf-check: vectorized
    const double dx = xs[k] - cx;
    const double dy = ys[k] - cy;
    const std::uint64_t outside = std::bit_cast<std::uint64_t>(r2 - (dx * dx + dy * dy)) >> 63;
    mask |= support::kLaneBits[k] & (outside - 1);
  }
  return mask;
}

}  // namespace

GridIndex::GridIndex(std::span<const Vec2> points, Aabb bounds, double cell_size)
    : bounds_(bounds), cell_size_(cell_size) {
  CDPF_CHECK_MSG(cell_size_ > 0.0, "grid cell size must be positive");
  CDPF_CHECK_MSG(bounds_.width() >= 0.0 && bounds_.height() >= 0.0,
                 "grid bounds must be non-degenerate");
  nx_ = static_cast<std::size_t>(std::max(1.0, std::ceil(bounds_.width() / cell_size_)));
  ny_ = static_cast<std::size_t>(std::max(1.0, std::ceil(bounds_.height() / cell_size_)));

  for (const Vec2 p : points) {
    CDPF_CHECK_MSG(bounds_.contains(p), "all indexed points must lie inside the bounds");
  }

  // Counting sort of point ids into cells (CSR layout, two passes).
  const std::size_t num_cells = nx_ * ny_;
  cell_start_.assign(num_cells + 1, 0);
  for (const Vec2 p : points) {
    ++cell_start_[cell_of(p) + 1];
  }
  for (std::size_t c = 0; c < num_cells; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
  ids_.resize(points.size());
  std::vector<std::size_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ids_[cursor[cell_of(points[i])]++] = i;
  }
  xs_.resize(points.size());
  ys_.resize(points.size());
  for (std::size_t k = 0; k < ids_.size(); ++k) {
    xs_[k] = points[ids_[k]].x;
    ys_[k] = points[ids_[k]].y;
  }
}

std::size_t GridIndex::count_disk_marked(Vec2 center, double radius,
                                         std::span<const std::uint8_t> slot_marks,
                                         std::span<const std::uint32_t> cell_marks) const {
  CDPF_ASSERT(slot_marks.size() == size() &&
              (cell_marks.empty() || cell_marks.size() == num_cells()));
  const double r2 = radius * radius;
  std::size_t count = 0;
  if (std::isnan(center.x) || std::isnan(center.y)) {
    return count;  // no point passes a test against a NaN center
  }
  // Boundary cells that follow each other in slot order (neighbours in a
  // row, no fully-inside cell between) form one run of slots, counted 64
  // slots at a time: the kernel's bit mask of the slots in the disk, ANDed
  // with the marks' bits unless every point is marked.
  std::size_t run_begin = 0;
  std::size_t run_end = 0;
  auto flush = [&] {
    for (std::size_t begin = run_begin; begin < run_end; begin += support::kLaneBits.size()) {
      const std::size_t n = std::min(support::kLaneBits.size(), run_end - begin);
      const std::uint64_t within =
          within_mask(xs_.data() + begin, ys_.data() + begin, n, center.x, center.y, r2);
      count += static_cast<std::size_t>(std::popcount(
          cell_marks.empty() ? within
                             : within & support::pack_bytes(slot_marks.data() + begin, n)));
    }
    run_begin = run_end;
  };
  for_each_cell(center, radius, [&](std::size_t c, bool fully_inside) {
    if (fully_inside) {
      count += cell_marks.empty() ? cell_population(c) : std::size_t{cell_marks[c]};
      return;
    }
    if (cell_start_[c] != run_end) {
      flush();
      run_begin = cell_start_[c];
    }
    run_end = cell_start_[c + 1];
  });
  flush();
  return count;
}

std::size_t GridIndex::max_cell_population() const {
  std::size_t most = 0;
  for (std::size_t c = 0; c < num_cells(); ++c) {
    most = std::max(most, cell_population(c));
  }
  return most;
}

std::size_t GridIndex::cell_of(Vec2 p) const {
  auto coord = [this](double v, double lo, std::size_t n) {
    const auto c = static_cast<std::ptrdiff_t>((v - lo) / cell_size_);
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(c, 0, static_cast<std::ptrdiff_t>(n) - 1));
  };
  return cell_at(coord(p.x, bounds_.lo.x, nx_), coord(p.y, bounds_.lo.y, ny_));
}

}  // namespace cdpf::geom
