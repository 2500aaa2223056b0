// Uniform-grid spatial index over static 2-D points.
//
// Sensor positions are fixed for a deployment, so a bucketed grid built once
// answers "all nodes within r of p" in O(points in the neighborhood) — this
// is the hot query of the whole simulator (neighbor tables, detection sets,
// predicted-area membership). A k-d tree would work too; the grid is chosen
// because deployments are uniform-random, making occupancy well balanced.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "geom/shapes.hpp"
#include "geom/vec2.hpp"
#include "support/check.hpp"

namespace cdpf::geom {

class GridIndex {
 public:
  /// Builds the index over `points` (indices into this span are the ids
  /// returned by queries). `cell_size` should be on the order of the typical
  /// query radius; bounds must contain all points.
  GridIndex(std::span<const Vec2> points, Aabb bounds, double cell_size);

  std::size_t size() const { return ids_.size(); }

  /// The id of the point at CSR slot `slot` in [0, size()). Slots group the
  /// points by cell, in the order visit_disk visits them; every visitor
  /// below is handed a point's slot beside its id, so callers can keep
  /// per-point state in slot order and read it contiguously.
  std::size_t id_at(std::size_t slot) const { return ids_[slot]; }
  /// Number of points cell `c` (a cell_of() value) holds.
  std::size_t cell_population(std::size_t c) const {
    return cell_start_[c + 1] - cell_start_[c];
  }

  /// Visit the (id, slot) pair of every point within `radius` of `center`
  /// (closed ball). Statically dispatched: this is the innermost loop of every
  /// neighbor/detection query, so the visitor must not hide behind a
  /// std::function indirection (or allocate one) per call. Boundary-cell
  /// membership tests read the CSR-ordered coordinates (xs_/ys_), so the
  /// access is contiguous.
  template <typename Visitor>
  void visit_disk(Vec2 center, double radius, Visitor&& visit) const {
    visit_disk_soa(center, radius,
                   [&](std::size_t id, std::size_t slot, double, double) { visit(id, slot); });
  }

  /// Visit (id, slot, x, y) tuples within the disk — the feed of
  /// Network::visit_active_within, which hands each point's coordinates
  /// straight from xs_/ys_. Visitation order, membership and arithmetic are
  /// identical to visit_disk.
  template <typename Visitor>
  void visit_disk_soa(Vec2 center, double radius, Visitor&& visit) const {
    const double r2 = radius * radius;
    for_each_cell(center, radius, [&](std::size_t c, bool fully_inside) {
      const std::size_t k_end = cell_start_[c + 1];
      if (fully_inside) {
        for (std::size_t k = cell_start_[c]; k < k_end; ++k) {
          visit(ids_[k], k, xs_[k], ys_[k]);
        }
        return;
      }
      for (std::size_t k = cell_start_[c]; k < k_end; ++k) {
        const double dx = xs_[k] - center.x;
        const double dy = ys_[k] - center.y;
        if (dx * dx + dy * dy <= r2) {
          visit(ids_[k], k, xs_[k], ys_[k]);
        }
      }
    });
  }

  /// Number of marked points within the disk, without visiting them:
  /// `slot_marks[k]` (0 or 1) marks the point at slot k, and `cell_marks[c]`
  /// must equal the sum of the marks of cell c's slots, or `cell_marks` be
  /// empty when every point is marked. Fully-inside cells add their tally
  /// (their population when `cell_marks` is empty); boundary cells add the
  /// mark of each point that passes its disk test, in a kernel cloned per
  /// ISA and vectorized like the batch bearing kernel (grid_index.cpp). The
  /// disk test rounds as visit_disk's does, so the count is exactly the
  /// number of marked ids visit_disk would visit.
  std::size_t count_disk_marked(Vec2 center, double radius,
                                std::span<const std::uint8_t> slot_marks,
                                std::span<const std::uint32_t> cell_marks) const;

  /// The cells of visit_disk's disk, in its cell-major order, that lie
  /// within `reach` of `target` along both axes and that `keep(c, near)`
  /// accepts, where `near` is the distance from `target` to cell c's box:
  /// `visit(c, slot_begin, slot_end)` with the slot range of each, so the
  /// caller reads the points off slot_ids(), slot_xs() and slot_ys() and
  /// applies its own per-point tests. The axis window is only a shortcut
  /// for `keep`: the caller must pass a `reach` beyond which keep() would
  /// reject a cell anyway, with margin for the rounding of the cell bounds.
  /// A NaN `target` offers every cell of the disk, with a NaN `near`.
  template <typename Keep, typename Visitor>
  void visit_disk_cells_near(Vec2 center, double radius, Vec2 target, double reach,
                             Keep&& keep, Visitor&& visit) const {
    const DiskCells disk = disk_cells(center, radius);
    // clamp_cell maps NaN to the low end; a NaN high end is the disk's.
    auto window_hi = [this](double v, double lo, std::ptrdiff_t c0, std::ptrdiff_t c1) {
      return std::isnan(v) ? c1 : clamp_cell(v, lo, c0, c1);
    };
    const std::ptrdiff_t cx0 = clamp_cell(target.x - reach, bounds_.lo.x, disk.cx0, disk.cx1);
    const std::ptrdiff_t cx1 = window_hi(target.x + reach, bounds_.lo.x, disk.cx0, disk.cx1);
    const std::ptrdiff_t cy0 = clamp_cell(target.y - reach, bounds_.lo.y, disk.cy0, disk.cy1);
    const std::ptrdiff_t cy1 = window_hi(target.y + reach, bounds_.lo.y, disk.cy0, disk.cy1);
    for (std::ptrdiff_t cy = cy0; cy <= cy1; ++cy) {
      const AxisExtent row = axis_extent(center.y, bounds_.lo.y, cy);
      const double near_y = axis_extent(target.y, bounds_.lo.y, cy).near;
      for (std::ptrdiff_t cx = cx0; cx <= cx1; ++cx) {
        if (!disk.test_cell(row, axis_extent(center.x, bounds_.lo.x, cx))) {
          continue;
        }
        const double near_x = axis_extent(target.x, bounds_.lo.x, cx).near;
        const std::size_t c =
            cell_at(static_cast<std::size_t>(cx), static_cast<std::size_t>(cy));
        if (keep(c, std::sqrt(near_x * near_x + near_y * near_y))) {
          visit(c, cell_start_[c], cell_start_[c + 1]);
        }
      }
    }
  }

  /// The CSR-ordered point ids and coordinates (slot k holds point
  /// slot_ids()[k] at (slot_xs()[k], slot_ys()[k])).
  std::span<const std::size_t> slot_ids() const { return ids_; }
  std::span<const double> slot_xs() const { return xs_; }
  std::span<const double> slot_ys() const { return ys_; }

  /// The most points any one cell holds, O(num_cells()).
  std::size_t max_cell_population() const;

  /// The point of visit_disk's disk (same cells, same per-point test) with
  /// the smallest `key(id, slot, x, y)` strictly below `bound`, where x and
  /// y are the point's coordinates; ties go to the lowest CSR slot, i.e. to
  /// the first such point visit_disk would visit. Returns size() when no
  /// point beats `bound`.
  ///
  /// Cells are visited in Chebyshev rings around `target`'s cell, clamped
  /// into the disk's cell range (a target may lie outside it), and only
  /// while they can win. `floor(d, c)` must bound from below the key of
  /// every point of cell `c` (a cell_of() value) whose box lies at
  /// Euclidean distance d from `target`, and `floor(d, num_cells())` that
  /// of every point at distance d or more, each with enough margin to
  /// absorb the rounding of the cell bounds. A cell is skipped when its
  /// floor exceeds the best key so far, and the search stops before ring
  /// k >= 1 once the floor of the ring's distance does: every cell of ring
  /// k or beyond lies (k - 1) cell sizes off the target's cell along one
  /// axis, plus the target's gap to the clamped cell, and a cell more along
  /// an axis on which the target lies beyond the disk's range (a greedy
  /// route's far sink), so such a search ends after a ring or two. The ring
  /// distance is shrunk by a relative slack, since the target's cell index
  /// and gaps are themselves rounded. So no candidate that could win or tie
  /// is ever passed over, and the answer does not depend on the visiting
  /// order. A NaN floor never skips. The query never allocates. The `key`
  /// may keep state across the calls of one query: it is called once per
  /// point that passes the disk test, and may answer +inf for a point it can
  /// tell cannot win or tie a point it was called on before.
  template <typename Key, typename Floor>
  std::size_t nearest_in_disk(Vec2 center, double radius, Vec2 target, double bound,
                              Key&& key, Floor&& floor) const {
    const DiskCells disk = disk_cells(center, radius);
    const double r2 = radius * radius;
    bool found = false;
    double best = bound;
    std::size_t best_slot = 0;
    auto consider = [&](std::size_t k) {
      const double d = key(ids_[k], k, xs_[k], ys_[k]);
      if (d < best || (found && d == best && k < best_slot)) {
        best = d;
        best_slot = k;
        found = true;
      }
    };
    auto scan = [&](std::size_t c, bool fully_inside) {
      const std::size_t k_end = cell_start_[c + 1];
      if (fully_inside) {
        for (std::size_t k = cell_start_[c]; k < k_end; ++k) {
          consider(k);
        }
        return;
      }
      // The disk test passes points at random; gather the slots that pass
      // without a branch, then rank them in slot order.
      constexpr std::size_t kChunk = 64;
      std::size_t passed[kChunk];
      for (std::size_t begin = cell_start_[c]; begin < k_end; begin += kChunk) {
        const std::size_t end = std::min(begin + kChunk, k_end);
        std::size_t n = 0;
        for (std::size_t k = begin; k < end; ++k) {
          const double dx = xs_[k] - center.x;
          const double dy = ys_[k] - center.y;
          passed[n] = k;
          n += dx * dx + dy * dy <= r2 ? 1 : 0;
        }
        for (std::size_t i = 0; i < n; ++i) {
          consider(passed[i]);
        }
      }
    };
    const std::ptrdiff_t tx = clamp_cell(target.x, bounds_.lo.x, disk.cx0, disk.cx1);
    const std::ptrdiff_t ty = clamp_cell(target.y, bounds_.lo.y, disk.cy0, disk.cy1);
    const std::ptrdiff_t rings =
        std::max({tx - disk.cx0, disk.cx1 - tx, ty - disk.cy0, disk.cy1 - ty});
    // Per axis, `gap` is the distance from target to the clamped cell's slab
    // and `first` a lower bound on its distance to the slabs one cell away:
    // when the target's own slab is in the range (it is the clamped one) a
    // slab i >= 1 away lies (i - 1) cell sizes off; when the target lies
    // beyond the range every slab of it lies on one side, gap + i off.
    struct Gap {
      double gap;
      double first;
    };
    auto axis_gap = [this](double v, double lo, std::ptrdiff_t t, std::ptrdiff_t c0,
                           std::ptrdiff_t c1) {
      const double gap = axis_extent(v, lo, t).near;
      const double c = std::floor((v - lo) / cell_size_);
      const bool beyond = c < static_cast<double>(c0) || c > static_cast<double>(c1);
      return Gap{gap, beyond ? gap + cell_size_ : gap};
    };
    const Gap gx = axis_gap(target.x, bounds_.lo.x, tx, disk.cx0, disk.cx1);
    const Gap gy = axis_gap(target.y, bounds_.lo.y, ty, disk.cy0, disk.cy1);
    for (std::ptrdiff_t k = 0; k <= rings; ++k) {
      // A cell of ring k lies k slabs off along one axis and at least the
      // gap off along the other.
      const double off = static_cast<double>(k - 1) * cell_size_;
      const double along_x = gx.first + off;
      const double along_y = gy.first + off;
      const double ring = std::sqrt(std::min(along_x * along_x + gy.gap * gy.gap,
                                             gx.gap * gx.gap + along_y * along_y));
      if (k >= 1 && floor(ring * (1.0 - 1e-9), num_cells()) > best) {
        break;
      }
      const std::ptrdiff_t cy_end = std::min(ty + k, disk.cy1);
      for (std::ptrdiff_t cy = std::max(ty - k, disk.cy0); cy <= cy_end; ++cy) {
        // Ring k's first and last rows are whole; the rows between hold
        // its two end cells.
        const std::ptrdiff_t step = cy == ty - k || cy == ty + k ? 1 : 2 * k;
        const AxisExtent row = axis_extent(center.y, bounds_.lo.y, cy);
        const double near_y = axis_extent(target.y, bounds_.lo.y, cy).near;
        for (std::ptrdiff_t cx = tx - k; cx <= tx + k; cx += step) {
          if (cx < disk.cx0 || cx > disk.cx1) {
            continue;
          }
          const double near_x = axis_extent(target.x, bounds_.lo.x, cx).near;
          const std::size_t c =
              cell_at(static_cast<std::size_t>(cx), static_cast<std::size_t>(cy));
          if (floor(std::sqrt(near_x * near_x + near_y * near_y), c) > best) {
            continue;
          }
          if (const std::optional<bool> fully_inside =
                  disk.test_cell(row, axis_extent(center.x, bounds_.lo.x, cx))) {
            scan(c, *fully_inside);
          }
        }
      }
    }
    return found ? ids_[best_slot] : size();
  }

  const Aabb& bounds() const { return bounds_; }
  double cell_size() const { return cell_size_; }
  std::size_t num_cells() const { return nx_ * ny_; }
  /// The cell, in [0, num_cells()), that holds a point at `p` (an indexed
  /// point's own cell, for its coordinates).
  std::size_t cell_of(Vec2 p) const;

 private:
  /// The farthest and nearest distance, along one axis, from coordinate
  /// `v` to the cell slab of index `c` on that axis, whose low edge is
  /// `lo + c * cell_size`.
  struct AxisExtent {
    double far;
    double near;
  };
  AxisExtent axis_extent(double v, double lo, std::ptrdiff_t c) const {
    const double c_lo = lo + static_cast<double>(c) * cell_size_;
    const double c_hi = c_lo + cell_size_;
    return {std::max(std::abs(v - c_lo), std::abs(v - c_hi)),
            std::max({c_lo - v, v - c_hi, 0.0})};
  }

  /// The cell range of a disk's bounding box and its two squared-radius
  /// gates. Both gates carry a relative margin dwarfing the rounding
  /// differences between the corner/edge bounds and the per-point
  /// arithmetic, so a point within an ulp of the circle always reaches the
  /// exact per-point check in the caller.
  struct DiskCells {
    std::ptrdiff_t cx0, cx1, cy0, cy1;
    double r2_shrunk;
    double r2_grown;

    /// The cell whose axis extents from the center are `row` and `col`:
    /// nullopt when even its NEAREST point lies outside the disk, else
    /// whether it is fully inside — its farthest corner lies inside the
    /// disk, so every point it holds matches without a per-point check.
    std::optional<bool> test_cell(const AxisExtent& row, const AxisExtent& col) const {
      if (col.near * col.near + row.near * row.near > r2_grown) {
        return std::nullopt;
      }
      return col.far * col.far + row.far * row.far <= r2_shrunk;
    }
  };
  DiskCells disk_cells(Vec2 center, double radius) const {
    CDPF_CHECK_MSG(radius >= 0.0, "query radius must be non-negative");
    const auto last_x = static_cast<std::ptrdiff_t>(nx_) - 1;
    const auto last_y = static_cast<std::ptrdiff_t>(ny_) - 1;
    return {clamp_cell(center.x - radius, bounds_.lo.x, 0, last_x),
            clamp_cell(center.x + radius, bounds_.lo.x, 0, last_x),
            clamp_cell(center.y - radius, bounds_.lo.y, 0, last_y),
            clamp_cell(center.y + radius, bounds_.lo.y, 0, last_y),
            radius * radius * (1.0 - 1e-12), radius * radius * (1.0 + 1e-12)};
  }

  /// Shared traversal of visit_disk/count_disk_marked: calls `visit_cell(c,
  /// fully_inside)` for every grid cell that may intersect the disk, in
  /// row-major order, by DiskCells::test_cell. Cells whose nearest point
  /// already lies outside the disk are skipped outright (the bounding box's
  /// corner cells — a third of it for a square box around a disk). With
  /// radius a few times the cell size (the simulator's comm-radius
  /// queries), most populated cells classify one way or the other and only
  /// the thin boundary ring pays per-point checks.
  template <typename CellVisitor>
  void for_each_cell(Vec2 center, double radius, CellVisitor&& visit_cell) const {
    const DiskCells disk = disk_cells(center, radius);
    for (std::ptrdiff_t cy = disk.cy0; cy <= disk.cy1; ++cy) {
      // The y-extent of this cell row, shared by every cell in the row.
      const AxisExtent row = axis_extent(center.y, bounds_.lo.y, cy);
      for (std::ptrdiff_t cx = disk.cx0; cx <= disk.cx1; ++cx) {
        if (const std::optional<bool> fully_inside =
                disk.test_cell(row, axis_extent(center.x, bounds_.lo.x, cx))) {
          visit_cell(cell_at(static_cast<std::size_t>(cx), static_cast<std::size_t>(cy)),
                     *fully_inside);
        }
      }
    }
  }

  /// The cell coordinate of `v` clamped into [c0, c1]; a NaN `v` gives c0,
  /// and no out-of-range value reaches the integer conversion.
  std::ptrdiff_t clamp_cell(double v, double lo, std::ptrdiff_t c0,
                            std::ptrdiff_t c1) const {
    const double c = std::floor((v - lo) / cell_size_);
    return !(c > static_cast<double>(c0))   ? c0
           : !(c < static_cast<double>(c1)) ? c1
                                            : static_cast<std::ptrdiff_t>(c);
  }
  std::size_t cell_at(std::size_t cx, std::size_t cy) const { return cy * nx_ + cx; }

  Aabb bounds_;
  double cell_size_ = 1.0;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  // CSR-style bucket layout: ids_ holds point ids grouped by cell;
  // cell_start_[c] .. cell_start_[c+1] delimits cell c. xs_/ys_ hold
  // the point coordinates in the same slot order (the index keeps no other
  // copy), so boundary-cell distance tests stream two contiguous double
  // arrays instead of gathering through the id indirection.
  std::vector<std::size_t> cell_start_;
  std::vector<std::size_t> ids_;
  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace cdpf::geom
