#include "geom/grid_index.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace cdpf::geom {

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

std::size_t GridIndex::cell_of(Vec2 p) const {
  auto coord = [this](double v, double lo, std::size_t n) {
    const auto c = static_cast<std::ptrdiff_t>((v - lo) / cell_size_);
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(c, 0, static_cast<std::ptrdiff_t>(n) - 1));
  };
  return cell_at(coord(p.x, bounds_.lo.x, nx_), coord(p.y, bounds_.lo.y, ny_));
}

}  // namespace cdpf::geom
