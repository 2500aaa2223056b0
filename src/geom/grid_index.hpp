// Uniform-grid spatial index over static 2-D points.
//
// Sensor positions are fixed for a deployment, so a bucketed grid built once
// answers "all nodes within r of p" in O(points in the neighborhood) — this
// is the hot query of the whole simulator (neighbor tables, detection sets,
// predicted-area membership). A k-d tree would work too; the grid is chosen
// because deployments are uniform-random, making occupancy well balanced.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
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

  std::size_t size() const { return points_.size(); }

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
  /// membership tests read the CSR-ordered coordinate copies (xs_/ys_)
  /// instead of gathering through ids_ into the AoS point table — same
  /// arithmetic on the same values, contiguous access.
  template <typename Visitor>
  void visit_disk(Vec2 center, double radius, Visitor&& visit) const {
    visit_disk_soa(center, radius,
                   [&](std::size_t id, std::size_t slot, double, double) { visit(id, slot); });
  }

  /// Visit (id, slot, x, y) tuples within the disk — the SoA feed of CDPF's
  /// propagation scan: callers append into structure-of-arrays scratch
  /// without ever touching the AoS point table. Visitation order, membership
  /// and arithmetic are identical to visit_disk.
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

  /// Number of points within the disk, without visiting them: fully-inside
  /// cells contribute their occupancy straight from the CSR offsets, so only
  /// boundary cells pay per-point distance checks — and those run branch-free
  /// over the contiguous coordinate arrays. They stay scalar: GCC 12 at the
  /// default build's -O2 reports the boundary loop "couldn't vectorize loop"
  /// under -fopt-info-vec-all, and so does -O3. Counts exactly the ids
  /// visit_disk would visit.
  std::size_t count_disk(Vec2 center, double radius) const {
    return count_disk_by(
        center, radius, [this](std::size_t c) { return cell_population(c); },
        [](std::size_t) { return std::size_t{1}; });
  }

  /// count_disk over the marked points only: `slot_marks[k]` (0 or 1) marks
  /// the point at slot k, and `cell_marks[c]` must equal the sum of the
  /// marks of cell c's slots. Fully-inside cells add their tally; boundary
  /// cells select each point's mark by its disk test, branch-free over
  /// contiguous bytes. Counts exactly the marked ids visit_disk would visit.
  std::size_t count_disk_marked(Vec2 center, double radius,
                                std::span<const std::uint8_t> slot_marks,
                                std::span<const std::uint32_t> cell_marks) const {
    CDPF_ASSERT(slot_marks.size() == size() && cell_marks.size() == num_cells());
    return count_disk_by(
        center, radius, [cell_marks](std::size_t c) { return std::size_t{cell_marks[c]}; },
        [slot_marks](std::size_t k) { return std::size_t{slot_marks[k]}; });
  }

  /// The point of visit_disk's disk (same cells, same per-point test) with
  /// the smallest `key(id, slot)` strictly below `bound`; ties go to the
  /// lowest CSR slot, i.e. to the first such point visit_disk would visit.
  /// Returns size() when no point beats `bound`.
  ///
  /// Cells are scanned nearest to `target` first and skipped once they
  /// cannot win: `floor(d, c)` must bound from below the key of every point
  /// of cell `c` (a cell_of() value), whose box lies at Euclidean distance d
  /// from `target`, with enough margin to absorb rounding — a cell is
  /// skipped only when its floor exceeds the best key so far, so no
  /// candidate that could win or tie is ever passed over. A NaN floor never
  /// skips. Pending cells live in a fixed-capacity stack buffer, scanned
  /// whenever it fills, so the query never allocates.
  template <typename Key, typename Floor>
  std::size_t nearest_in_disk(Vec2 center, double radius, Vec2 target, double bound,
                              Key&& key, Floor&& floor) const {
    struct PendingCell {
      double floor;
      std::size_t cell;
      bool fully_inside;
    };
    std::array<PendingCell, kNearestCellBatch> pending;
    std::size_t num_pending = 0;
    const double r2 = radius * radius;
    bool found = false;
    double best = bound;
    std::size_t best_slot = 0;
    auto scan = [&](const PendingCell& cell) {
      const std::size_t k_end = cell_start_[cell.cell + 1];
      for (std::size_t k = cell_start_[cell.cell]; k < k_end; ++k) {
        if (!cell.fully_inside) {
          const double dx = xs_[k] - center.x;
          const double dy = ys_[k] - center.y;
          if (!(dx * dx + dy * dy <= r2)) {
            continue;
          }
        }
        const double d = key(ids_[k], k);
        if (d < best || (found && d == best && k < best_slot)) {
          best = d;
          best_slot = k;
          found = true;
        }
      }
    };
    // Nearest pending cell first, until the nearest left cannot win.
    auto drain = [&] {
      while (num_pending > 0) {
        std::size_t next = 0;
        for (std::size_t i = 1; i < num_pending; ++i) {
          if (pending[i].floor < pending[next].floor) {
            next = i;
          }
        }
        if (pending[next].floor > best) {
          break;
        }
        scan(pending[next]);
        pending[next] = pending[--num_pending];
      }
      num_pending = 0;
    };
    for_each_cell(center, radius, [&](std::size_t c, bool fully_inside) {
      const double x_lo = bounds_.lo.x + static_cast<double>(c % nx_) * cell_size_;
      const double y_lo = bounds_.lo.y + static_cast<double>(c / nx_) * cell_size_;
      const double dx = std::max({x_lo - target.x, target.x - (x_lo + cell_size_), 0.0});
      const double dy = std::max({y_lo - target.y, target.y - (y_lo + cell_size_), 0.0});
      const double f = floor(std::sqrt(dx * dx + dy * dy), c);
      pending[num_pending++] = {std::isnan(f) ? -std::numeric_limits<double>::infinity() : f,
                                c, fully_inside};
      if (num_pending == pending.size()) {
        drain();
      }
    });
    drain();
    return found ? ids_[best_slot] : size();
  }

  const Aabb& bounds() const { return bounds_; }
  double cell_size() const { return cell_size_; }
  std::size_t num_cells() const { return nx_ * ny_; }
  /// The cell, in [0, num_cells()), that holds a point at `p` (an indexed
  /// point's own cell, for its coordinates).
  std::size_t cell_of(Vec2 p) const;

 private:
  /// Pending-cell capacity of nearest_in_disk: a disk of three cell radii
  /// (the simulator's r_c = 3 r_s) touches at most 49 cells, so one batch
  /// covers it; wider disks scan in several batches.
  static constexpr std::size_t kNearestCellBatch = 64;

  /// The body of count_disk and count_disk_marked: a fully-inside cell c
  /// adds `cell_count(c)`, a boundary cell adds `slot_count(k)` for each of
  /// its slots k whose point passes the disk test.
  template <typename CellCount, typename SlotCount>
  std::size_t count_disk_by(Vec2 center, double radius, CellCount&& cell_count,
                            SlotCount&& slot_count) const {
    const double r2 = radius * radius;
    std::size_t count = 0;
    for_each_cell(center, radius, [&](std::size_t c, bool fully_inside) {
      if (fully_inside) {
        count += cell_count(c);
        return;
      }
      const std::size_t k_end = cell_start_[c + 1];
      for (std::size_t k = cell_start_[c]; k < k_end; ++k) {
        const double dx = xs_[k] - center.x;
        const double dy = ys_[k] - center.y;
        // A product, not a select: the mark is read whether or not the
        // point is inside, so the loop has no data-dependent branch.
        count += slot_count(k) * static_cast<std::size_t>(dx * dx + dy * dy <= r2);
      }
    });
    return count;
  }

  /// Shared traversal of visit_disk/count_disk: calls `visit_cell(c,
  /// fully_inside)` for every grid cell that may intersect the disk, in
  /// row-major order. `fully_inside` is true when the cell's farthest corner
  /// lies inside the disk, i.e. every point it holds matches without a
  /// per-point distance check; cells whose NEAREST point already lies
  /// outside the disk are skipped outright (the bounding box's corner cells
  /// — a third of it for a square box around a disk). With radius a few
  /// times the cell size (the simulator's comm-radius queries), most
  /// populated cells classify one way or the other and only the thin
  /// boundary ring pays per-point checks. Both gates carry a relative
  /// margin dwarfing the rounding differences between the corner/edge
  /// bounds and the per-point arithmetic, so a point within an ulp of the
  /// circle always reaches the exact per-point check in the caller.
  template <typename CellVisitor>
  void for_each_cell(Vec2 center, double radius, CellVisitor&& visit_cell) const {
    CDPF_CHECK_MSG(radius >= 0.0, "query radius must be non-negative");
    const double r2_shrunk = radius * radius * (1.0 - 1e-12);
    const double r2_grown = radius * radius * (1.0 + 1e-12);
    const std::size_t cx0 = clamped_cell_coord(center.x - radius, bounds_.lo.x, nx_);
    const std::size_t cx1 = clamped_cell_coord(center.x + radius, bounds_.lo.x, nx_);
    const std::size_t cy0 = clamped_cell_coord(center.y - radius, bounds_.lo.y, ny_);
    const std::size_t cy1 = clamped_cell_coord(center.y + radius, bounds_.lo.y, ny_);
    for (std::size_t cy = cy0; cy <= cy1; ++cy) {
      // Farthest and nearest y-extent of this cell row from the center,
      // shared by every cell in the row.
      const double y_lo = bounds_.lo.y + static_cast<double>(cy) * cell_size_;
      const double y_hi = y_lo + cell_size_;
      const double dy_far = std::max(std::abs(center.y - y_lo), std::abs(center.y - y_hi));
      const double dy_near = std::max({y_lo - center.y, center.y - y_hi, 0.0});
      for (std::size_t cx = cx0; cx <= cx1; ++cx) {
        const double x_lo = bounds_.lo.x + static_cast<double>(cx) * cell_size_;
        const double x_hi = x_lo + cell_size_;
        const double dx_near = std::max({x_lo - center.x, center.x - x_hi, 0.0});
        if (dx_near * dx_near + dy_near * dy_near > r2_grown) {
          continue;  // even the nearest point of this cell is outside
        }
        const double dx_far = std::max(std::abs(center.x - x_lo),
                                       std::abs(center.x - x_hi));
        visit_cell(cell_at(cx, cy),
                   dx_far * dx_far + dy_far * dy_far <= r2_shrunk);
      }
    }
  }

  std::size_t clamped_cell_coord(double v, double lo, std::size_t n) const {
    const auto c = static_cast<std::ptrdiff_t>(std::floor((v - lo) / cell_size_));
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(c, 0, static_cast<std::ptrdiff_t>(n) - 1));
  }
  std::size_t cell_at(std::size_t cx, std::size_t cy) const { return cy * nx_ + cx; }

  std::vector<Vec2> points_;
  Aabb bounds_;
  double cell_size_ = 1.0;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  // CSR-style bucket layout: ids_ holds point ids grouped by cell;
  // cell_start_[c] .. cell_start_[c+1] delimits cell c. xs_/ys_ mirror ids_
  // with the point coordinates in the same slot order, so boundary-cell
  // distance tests stream two contiguous double arrays instead of gathering
  // Vec2s through the id indirection.
  std::vector<std::size_t> cell_start_;
  std::vector<std::size_t> ids_;
  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace cdpf::geom
