// The deployed sensor network: node table, radii, spatial queries, and the
// mutable runtime state (alive / power) of every node.
//
// The network also designates a *sink* (the node nearest the field center;
// CPF convergecasts measurements to it) and can host a *global transceiver*
// (SDPF's one-hop-from-everyone aggregation device, modelled as an abstract
// endpoint rather than a node because the paper's SDPF assumes it can reach
// all nodes directly).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geom/grid_index.hpp"
#include "geom/shapes.hpp"
#include "geom/vec2.hpp"
#include "support/check.hpp"
#include "wsn/node.hpp"

namespace cdpf::wsn {

/// Field geometry and radii, all in meters; defaults are the paper's §VI-A
/// scenario.
struct NetworkConfig {
  geom::Aabb field = geom::Aabb::square(200.0);  // paper: 200 m x 200 m
  double sensing_radius = 10.0;                  // paper: r_s = 10 m
  double comm_radius = 30.0;                     // paper: r_c = 30 m

  /// True when the paper's overhearing assumption r_s <= r_c / 2 holds.
  bool overhearing_assumption_holds() const {
    return sensing_radius <= comm_radius / 2.0;
  }
};

/// The deployed field. Node ids are dense [0, size()) in deployment order
/// and never change after construction; spatial queries return ids in the
/// grid's global cell-major order, which is deterministic for a given
/// deployment. Trackers walk the sets they keep in ascending node id (no
/// hash container is used in src/), so algorithm results never depend on
/// hash or pointer order. Not thread-safe for mutation; const queries may be read
/// from multiple threads as long as no runtime-state change is concurrent
/// (active_comm_disk_count is the exception — see its note).
class Network {
 public:
  /// Deploys one node per position (meters, inside `config.field`).
  /// Precondition: `positions` is non-empty; the sink is the node nearest
  /// the field center, ties broken toward the lowest id.
  Network(std::vector<geom::Vec2> positions, NetworkConfig config);

  const NetworkConfig& config() const { return config_; }
  /// Number of deployed nodes (alive or not).
  std::size_t size() const { return nodes_.size(); }

  // node() and position() are called tens of millions of times per simulated
  // track (every spatial filter and likelihood gate reads them), so they are
  // defined here rather than out of line.
  const Node& node(NodeId id) const {
    CDPF_CHECK_MSG(id < nodes_.size(), "node id out of range");
    return nodes_[id];
  }
  /// The position the ALGORITHMS use — the node's belief about where it is
  /// (exact by default; a localization pass may replace it with estimates).
  geom::Vec2 position(NodeId id) const {
    CDPF_CHECK_MSG(id < nodes_.size(), "node id out of range");
    return believed_positions_.empty() ? nodes_[id].position : believed_positions_[id];
  }
  /// The physical position — what detection and radio propagation obey.
  geom::Vec2 true_position(NodeId id) const { return node(id).position; }
  /// Install believed positions (one per node), e.g. from wsn::localize().
  /// Spatial queries still run on the true positions (radio and sensing are
  /// physical); only the coordinates the algorithms read change.
  void set_believed_positions(std::vector<geom::Vec2> believed);
  /// Restore believed == true positions.
  void clear_believed_positions();
  /// The largest |believed - true| over all nodes: 0 when believed == true
  /// positions, +inf when a believed position is NaN. A node whose believed
  /// position lies within r of a point lies within r plus this of it.
  double max_believed_displacement() const {
    return cell_displacement_.empty() ? 0.0 : cell_displacement_.back();
  }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Node nearest the field center; CPF's computational center.
  NodeId sink() const { return sink_; }

  // -- Runtime state ------------------------------------------------------
  /// Kill or revive a node (failure injection). Dead nodes stay deployed —
  /// ids remain stable — but drop out of every active-* query.
  void set_alive(NodeId id, bool alive);
  /// Duty-cycle a node awake or asleep; asleep nodes are inactive.
  void set_power(NodeId id, PowerState state);
  /// Alive AND awake — the participation predicate every query filters on.
  bool is_active(NodeId id) const { return node(id).active(); }
  /// Number of active nodes, O(1).
  std::size_t active_count() const { return nodes_.size() - inactive_count_; }
  /// Bumps on every change a position-reading query can observe: an
  /// activity transition (set_alive / set_power) or a change of believed
  /// positions. Caches keyed on it are never stale.
  std::uint64_t activity_epoch() const { return activity_epoch_; }

  // -- Spatial queries (include inactive nodes; callers filter) -----------
  /// Ids of all nodes within `radius` of `center`.
  std::size_t nodes_within(geom::Vec2 center, double radius,
                           std::vector<NodeId>& out) const;

  /// Ids of *active* nodes within `radius` of `center`.
  std::size_t active_nodes_within(geom::Vec2 center, double radius,
                                  std::vector<NodeId>& out) const;

  /// Visit `visit(id, true_position, believed_position)` for every *active*
  /// node within `radius` of `center`: the nodes of active_nodes_within, in
  /// its order. The disk test runs on true positions; the true coordinates
  /// come straight from the grid's slot-ordered arrays, and the believed
  /// ones are position(id) (the same coordinates when none are installed).
  template <typename Visitor>
  void visit_active_within(geom::Vec2 center, double radius, Visitor&& visit) const {
    index_->visit_disk_soa(
        center, radius, [&](std::size_t id, std::size_t slot, double x, double y) {
          if (inactive_count_ == 0 || slot_active_[slot] != 0) {
            const geom::Vec2 at{x, y};
            visit(static_cast<NodeId>(id), at,
                  believed_positions_.empty() ? at : believed_positions_[id]);
          }
        });
  }

  /// Number of active nodes within `radius` of `center`, without
  /// materializing the id list: fully-inside cells add their active tally
  /// (their population while every node is active) and only boundary cells
  /// read activity bytes, contiguous in slot order, in the grid's vectorized
  /// count kernel (GridIndex::count_disk_marked).
  std::size_t count_active_within(geom::Vec2 center, double radius) const;

  /// The nodes of one grid cell as contiguous slot-ordered arrays: slot j
  /// of the block holds node ids[j], at true position (x[j], y[j]) and
  /// believed position (believed_x[j], believed_y[j]), active when
  /// active[j] != 0. Read-only views into the network; valid until its
  /// believed positions or activity change.
  struct SlotBlock {
    const std::size_t* ids;
    const double* x;
    const double* y;
    const double* believed_x;
    const double* believed_y;
    const std::uint8_t* active;
    std::size_t size;
  };

  /// Every node, active or not, that may lie within `radius` of `center`
  /// (true positions) and believe itself within `reach` of `target`, by
  /// cell: visit(SlotBlock) for each cell of the grid's `radius` disk around
  /// `center`, in its cell-major order, except the cells whose box lies
  /// farther from `target` than `reach` plus the largest believed-vs-true
  /// displacement of the cell's own nodes (with a 1e-9 relative margin for
  /// rounding). The caller applies the exact tests to each node: every node
  /// that passes both lies in a visited block, in the grid's order. With
  /// believed == true positions that is the `reach` disk's cells; one badly
  /// localized node widens only its own cell's test. Allocation-free.
  template <typename Visitor>
  void visit_cells_believed_near(geom::Vec2 center, double radius, geom::Vec2 target,
                                 double reach, Visitor&& visit) const;

  /// An upper bound on the number of nodes within `radius` of any point:
  /// the most nodes one grid cell holds times the cells such a disk can
  /// touch, capped at size(). Bounds a broadcast's receivers and a
  /// propagation round's recorders per host at r_c. O(grid cells).
  std::size_t max_nodes_within(double radius) const;

  /// The radio neighbour of `u` nearest `target`, or kInvalidNodeId when
  /// none is strictly nearer than `bound`. Candidates are the active nodes
  /// v != u within the communication radius of u's true position — by the
  /// grid's own disk arithmetic, exactly the nodes active_nodes_within
  /// returns. They are ranked by Distance(position(v), target), believed
  /// positions included, and `bound` is in Distance's units; ties go to the
  /// candidate active_nodes_within lists first. Distance is geom::distance
  /// or geom::distance_squared (the two instantiations network.cpp
  /// provides). Allocation-free, and with no cache: the grid visits the
  /// disk's cells in rings around `target`'s cell and skips a cell once even
  /// its nearest point, moved by the largest believed-vs-true displacement
  /// of the nodes in that cell, cannot tie the best candidate so far; it
  /// stops at the first ring that, moved by the largest displacement of any
  /// node, cannot (GridIndex::nearest_in_disk). Candidates are ranked by
  /// the grid's slot-ordered coordinates when believed == true positions.
  template <double (*Distance)(geom::Vec2, geom::Vec2)>
  NodeId nearest_comm_neighbour(NodeId u, geom::Vec2 target, double bound) const;

  /// Number of active nodes (including `id` itself when active) within the
  /// communication radius of `id`'s true position — the size of its radio
  /// neighbourhood plus one. Memoized per node and invalidated whenever any
  /// node's activity changes, so per-message radio accounting does not pay a
  /// grid walk per broadcast.
  std::size_t active_comm_disk_count(NodeId id) const;

  /// Active nodes whose sensing disk contains `target` — the detecting set
  /// under the instant-detection model — written into `out` (cleared
  /// first) in query order. Every tracker asks for its detecting set here.
  std::size_t detecting_nodes(geom::Vec2 target, std::vector<NodeId>& out) const;

  /// The link predicate of the radio: are nodes `a` and `b` within the
  /// communication radius of each other? Radio propagation is physical, so
  /// it compares true positions — the same arithmetic as the grid's disk
  /// test, so a disk query at r_c around a node's true position returns
  /// exactly the nodes this predicate links it to.
  bool in_comm_range(NodeId a, NodeId b) const {
    const double rc = config_.comm_radius;
    return geom::distance_squared(true_position(a), true_position(b)) <= rc * rc;
  }

 private:
  /// Re-derive the activity mirror and inactive_count_ after a
  /// runtime-state change of `id`, in O(1).
  void refresh_active(NodeId id);
  /// Set every cell's active tally to its population, allocating the
  /// tallies (and setting every node's grid slot and cell) on first use.
  void fill_cell_tallies();

  NetworkConfig config_;
  std::vector<Node> nodes_;
  std::vector<geom::Vec2> believed_positions_;  // empty => believed == true
  // The believed coordinates again, in grid-slot order (empty with
  // believed_positions_), so a cell's believed positions are contiguous
  // like its true ones.
  std::vector<double> believed_slot_x_;
  std::vector<double> believed_slot_y_;
  // Per grid cell, the largest |believed - true| of the nodes whose true
  // position the cell holds (+inf when a believed position is NaN; empty,
  // i.e. 0 everywhere, when believed == true): how far a believed distance
  // from a node of the cell may fall below a true one, the pruning margin of
  // nearest_comm_neighbour for that cell. One trailing entry, at index
  // num_cells(), holds the largest over all cells: the margin of its ring
  // bound, and max_believed_displacement().
  std::vector<double> cell_displacement_;
  std::unique_ptr<geom::GridIndex> index_;
  NodeId sink_ = kInvalidNodeId;
  // Activity mirror of nodes_, one byte per node in grid-slot order
  // (Node::grid_slot), so a disk query reads the bytes of a cell
  // contiguously; beside it the number of active nodes of each grid cell,
  // so a count skips the bytes of cells the disk covers whole. The tallies
  // and the nodes' grid slots and cells wait for the first deactivation,
  // so an all-active network allocates and walks nothing beyond the bytes;
  // inactive_count_ == 0 lets queries skip the filter.
  std::vector<std::uint8_t> slot_active_;
  std::vector<std::uint32_t> cell_active_;
  std::size_t inactive_count_ = 0;
  // Per-node comm-disk receiver-count memo, keyed by the activity epoch. The
  // epoch bumps on every activity transition (set_alive / set_power) and
  // believed-position change, so a stale entry can never be served.
  // Mutable: logically the cache of a const query. Not thread-safe — radio
  // accounting runs on the simulation thread only.
  std::uint64_t activity_epoch_ = 1;
  mutable std::vector<std::size_t> comm_count_;
  mutable std::vector<std::uint64_t> comm_count_epoch_;
};

template <typename Visitor>
void Network::visit_cells_believed_near(geom::Vec2 center, double radius,
                                        geom::Vec2 target, double reach,
                                        Visitor&& visit) const {
  // A node of cell c within `reach` of `target` by its believed position
  // lies within reach + cell_displacement_[c] of it by its true one
  // (triangle inequality), so its cell's box does too. The rounding in the
  // cell bounds, the grid's cell assignment and the displacement is a few
  // ulp of the coordinates involved; the margin, 1e-9 of their scale,
  // dwarfs it, as in nearest_comm_neighbour. The axis window adds the
  // largest displacement and twice the margin, so it never cuts a cell the
  // per-cell test keeps.
  const geom::Aabb& field = config_.field;
  const double scale = std::abs(target.x) + std::abs(target.y) + std::abs(field.lo.x) +
                       std::abs(field.lo.y) + std::abs(field.hi.x) + std::abs(field.hi.y) +
                       radius + reach + index_->cell_size();
  const double largest = max_believed_displacement();
  const double window = reach + largest + 2e-9 * (scale + largest);
  const std::span<const std::size_t> ids = index_->slot_ids();
  const std::span<const double> xs = index_->slot_xs();
  const std::span<const double> ys = index_->slot_ys();
  const bool believed = !believed_positions_.empty();
  const double* bx = believed ? believed_slot_x_.data() : xs.data();
  const double* by = believed ? believed_slot_y_.data() : ys.data();
  index_->visit_disk_cells_near(
      center, radius, target, window,
      [&](std::size_t c, double near) {
        const double displacement = believed ? cell_displacement_[c] : 0.0;
        return !(near > reach + displacement + 1e-9 * (scale + displacement));
      },
      [&](std::size_t, std::size_t begin, std::size_t end) {
        visit(SlotBlock{ids.data() + begin, xs.data() + begin, ys.data() + begin,
                        bx + begin, by + begin, slot_active_.data() + begin, end - begin});
      });
}

}  // namespace cdpf::wsn
