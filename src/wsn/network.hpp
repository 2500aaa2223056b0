// The deployed sensor network: node table, radii, spatial queries, and the
// mutable runtime state (alive / power) of every node.
//
// The network also designates a *sink* (the node nearest the field center;
// CPF convergecasts measurements to it) and can host a *global transceiver*
// (SDPF's one-hop-from-everyone aggregation device, modelled as an abstract
// endpoint rather than a node because the paper's SDPF assumes it can reach
// all nodes directly).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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
  bool has_believed_positions() const { return !believed_positions_.empty(); }
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

  /// Visit `visit(id, x, y)` for every *active* node within `radius` of
  /// `center`: the nodes of active_nodes_within, in its order, with their
  /// TRUE coordinates read straight from the grid's slot-ordered arrays, so
  /// no per-node gather through the Node table. Only valid when believed ==
  /// true positions (checked).
  template <typename Visitor>
  void visit_active_within(geom::Vec2 center, double radius, Visitor&& visit) const {
    CDPF_CHECK_MSG(believed_positions_.empty(),
                   "the visitor reads true positions; "
                   "use active_nodes_within + position() under believed positions");
    index_->visit_disk_soa(center, radius,
                           [&](std::size_t id, std::size_t slot, double x, double y) {
                             if (inactive_count_ == 0 || slot_active_[slot] != 0) {
                               visit(static_cast<NodeId>(id), x, y);
                             }
                           });
  }

  /// Number of active nodes within `radius` of `center`, without
  /// materializing the id list. With all nodes active this is a pure
  /// grid-occupancy count (no per-node memory traffic at all); otherwise
  /// fully-inside cells add their active tally and only boundary cells read
  /// activity bytes, contiguous in slot order.
  std::size_t count_active_within(geom::Vec2 center, double radius) const;

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
  // Per grid cell, the largest |believed - true| of the nodes whose true
  // position the cell holds (+inf when a believed position is NaN; empty,
  // i.e. 0 everywhere, when believed == true): how far a believed distance
  // from a node of the cell may fall below a true one, the pruning margin of
  // nearest_comm_neighbour for that cell. One trailing entry, at index
  // num_cells(), holds the largest over all cells: the margin of its ring
  // bound.
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

}  // namespace cdpf::wsn
