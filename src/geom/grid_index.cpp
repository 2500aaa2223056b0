#include "geom/grid_index.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/kernel_clones.hpp"

namespace cdpf::geom {

namespace {

/// The marked points of one boundary cell that lie within the disk: the
/// sum of marks[k] over the n slots whose point (xs[k], ys[k]) passes
/// visit_disk's test d^2 <= r2, with d^2 rounded as visit_disk rounds it (no
/// contraction: the file is compiled with CDPF_BATCH_KERNEL_FLAGS). Every
/// mark is read and multiplied by its test, so the loop has no
/// data-dependent branch. The simd directive only sets the vector length: a
/// byte mark would otherwise size the AVX-512F clone's vectors by the byte
/// lanes it lacks; the integer sum is exact in any order.
CDPF_KERNEL_CLONES
std::size_t count_marked_within(const double* __restrict xs, const double* __restrict ys,
                                const std::uint8_t* __restrict marks, std::size_t n,
                                double cx, double cy, double r2) {
  std::size_t count = 0;
#pragma omp simd simdlen(8) reduction(+ : count)  // cdpf-check: vectorized
  for (std::size_t k = 0; k < n; ++k) {
    const double dx = xs[k] - cx;
    const double dy = ys[k] - cy;
    count += static_cast<std::size_t>(marks[k]) *
             static_cast<std::size_t>(dx * dx + dy * dy <= r2);
  }
  return count;
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
  // Boundary cells that follow each other in slot order (neighbours in a
  // row, no fully-inside cell between) form one run of slots, counted in one
  // kernel call.
  std::size_t run_begin = 0;
  std::size_t run_end = 0;
  auto flush = [&] {
    count += count_marked_within(xs_.data() + run_begin, ys_.data() + run_begin,
                                 slot_marks.data() + run_begin, run_end - run_begin,
                                 center.x, center.y, r2);
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
