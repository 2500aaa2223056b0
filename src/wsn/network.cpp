#include "wsn/network.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace cdpf::wsn {

namespace {

/// Whether nearest_comm_neighbour<Distance> ranks by geom::distance (hypot)
/// rather than geom::distance_squared.
template <double (*Distance)(geom::Vec2, geom::Vec2)>
constexpr bool kRanksByHypot = false;
template <>
constexpr bool kRanksByHypot<geom::distance> = true;

}  // namespace

Network::Network(std::vector<geom::Vec2> positions, NetworkConfig config)
    : config_(config) {
  CDPF_CHECK_MSG(!positions.empty(), "a network needs at least one node");
  CDPF_CHECK_MSG(config_.sensing_radius > 0.0, "sensing radius must be positive");
  CDPF_CHECK_MSG(config_.comm_radius > 0.0, "communication radius must be positive");

  nodes_.reserve(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    CDPF_CHECK_MSG(config_.field.contains(positions[i]),
                   "node position outside the deployment field");
    nodes_.push_back(Node{.id = static_cast<NodeId>(i), .position = positions[i]});
  }
  slot_active_.assign(nodes_.size(), 1);
  comm_count_.assign(nodes_.size(), 0);
  comm_count_epoch_.assign(nodes_.size(), 0);

  // Cell size near the sensing radius keeps both detection queries (r_s) and
  // radio queries (r_c, a few cells) efficient.
  index_ = std::make_unique<geom::GridIndex>(std::span<const geom::Vec2>(positions),
                                             config_.field, config_.sensing_radius);

  const geom::Vec2 center = config_.field.center();
  double best = std::numeric_limits<double>::infinity();
  for (const Node& n : nodes_) {
    const double d2 = geom::distance_squared(n.position, center);
    if (d2 < best) {
      best = d2;
      sink_ = n.id;
    }
  }
}

void Network::set_believed_positions(std::vector<geom::Vec2> believed) {
  CDPF_CHECK_MSG(believed.size() == nodes_.size(),
                 "need one believed position per node");
  believed_positions_ = std::move(believed);
  believed_slot_x_.resize(nodes_.size());
  believed_slot_y_.resize(nodes_.size());
  for (std::size_t k = 0; k < nodes_.size(); ++k) {
    const geom::Vec2 b = believed_positions_[index_->id_at(k)];
    believed_slot_x_[k] = b.x;
    believed_slot_y_[k] = b.y;
  }
  cell_displacement_.assign(index_->num_cells() + 1, 0.0);
  double& largest = cell_displacement_.back();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const double d = geom::distance(believed_positions_[i], nodes_[i].position);
    const double reach = std::isnan(d) ? std::numeric_limits<double>::infinity() : d;
    double& cell = cell_displacement_[index_->cell_of(nodes_[i].position)];
    cell = std::max(cell, reach);
    largest = std::max(largest, reach);
  }
  ++activity_epoch_;
}

void Network::clear_believed_positions() {
  believed_positions_.clear();
  believed_slot_x_.clear();
  believed_slot_y_.clear();
  cell_displacement_.clear();
  ++activity_epoch_;
}

void Network::fill_cell_tallies() {
  if (cell_active_.empty()) {
    // The first deactivation: every node learns its slot and cell, where
    // its byte and its cell's tally sit. A network that never deactivates
    // a node never pays this walk.
    std::size_t slot = 0;
    for (std::size_t c = 0; c < index_->num_cells(); ++c) {
      for (const std::size_t end = slot + index_->cell_population(c); slot < end; ++slot) {
        Node& n = nodes_[index_->id_at(slot)];
        n.grid_slot = static_cast<std::uint32_t>(slot);
        n.grid_cell = static_cast<std::uint32_t>(c);
      }
    }
    cell_active_.resize(index_->num_cells());
  }
  for (std::size_t c = 0; c < cell_active_.size(); ++c) {
    cell_active_[c] = static_cast<std::uint32_t>(index_->cell_population(c));
  }
}

void Network::refresh_active(NodeId id) {
  const Node& n = nodes_[id];
  const std::uint8_t now = n.active() ? 1 : 0;
  if (cell_active_.empty()) {
    if (now != 0) {
      return;  // all active, and staying so
    }
    fill_cell_tallies();  // the first deactivation
  }
  std::uint8_t& active = slot_active_[n.grid_slot];
  if (active == now) {
    return;
  }
  active = now;
  // +1 or -1 (modulo 2^32 and 2^64), without a branch on the direction.
  cell_active_[n.grid_cell] += now != 0 ? 1u : ~0u;
  inactive_count_ -= now != 0 ? std::size_t{1} : ~std::size_t{0};
  ++activity_epoch_;
}

bool Network::flip_power(std::size_t begin, std::uint64_t flips) {
  if (flips == 0) {
    return false;
  }
  if (cell_active_.empty()) {
    // The first deactivation (a flip while every node is alive and awake).
    fill_cell_tallies();
  }
  // Locals, so the byte stores below cannot make the compiler reload them.
  // Slots run in cell order, so a cell's flips are summed before its tally
  // is written.
  Node* const nodes = nodes_.data();
  const std::size_t* const ids = index_->slot_ids().data();
  std::uint8_t* const active = slot_active_.data();
  std::uint32_t* const tally = cell_active_.data();
  std::size_t flipped = 0;
  std::size_t woken = 0;
  std::uint32_t cell = 0;
  std::uint32_t cell_change = 0;
  for (; flips != 0; flips &= flips - 1) {
    const std::size_t slot = begin + static_cast<std::size_t>(std::countr_zero(flips));
    Node& n = nodes[ids[slot]];
    if (!n.alive) {
      continue;
    }
    const std::uint8_t now = active[slot] ^ 1;
    n.power = now != 0 ? PowerState::kAwake : PowerState::kAsleep;
    active[slot] = now;
    if (n.grid_cell != cell) {
      tally[cell] += cell_change;
      cell = n.grid_cell;
      cell_change = 0;
    }
    // +1 or -1 (modulo 2^32), without a branch on the direction.
    cell_change += now != 0 ? 1u : ~0u;
    woken += now;
    ++flipped;
  }
  tally[cell] += cell_change;
  // Each woken node is one inactive fewer, each sent to sleep one more
  // (modulo 2^64).
  inactive_count_ += flipped - 2 * woken;
  return flipped != 0;
}

void Network::set_alive(NodeId id, bool alive) {
  CDPF_CHECK_MSG(id < nodes_.size(), "node id out of range");
  nodes_[id].alive = alive;
  refresh_active(id);
}

void Network::set_power(NodeId id, PowerState state) {
  CDPF_CHECK_MSG(id < nodes_.size(), "node id out of range");
  nodes_[id].power = state;
  refresh_active(id);
}

std::size_t Network::nodes_within(geom::Vec2 center, double radius,
                                  std::vector<NodeId>& out) const {
  out.clear();
  index_->visit_disk(center, radius, [&out](std::size_t id, std::size_t) {
    out.push_back(static_cast<NodeId>(id));
  });
  return out.size();
}

std::size_t Network::active_nodes_within(geom::Vec2 center, double radius,
                                         std::vector<NodeId>& out) const {
  out.clear();
  if (inactive_count_ == 0) {
    index_->visit_disk(center, radius, [&out](std::size_t id, std::size_t) {
      out.push_back(static_cast<NodeId>(id));
    });
  } else {
    index_->visit_disk(center, radius, [this, &out](std::size_t id, std::size_t slot) {
      if (slot_active_[slot] != 0) {
        out.push_back(static_cast<NodeId>(id));
      }
    });
  }
  return out.size();
}

std::size_t Network::count_active_within(geom::Vec2 center, double radius) const {
  // The tallies exist from the first deactivation on; before it every node
  // is active and a fully-inside cell adds its population.
  return index_->count_disk_marked(center, radius, slot_active_, cell_active_);
}

std::size_t Network::max_nodes_within(double radius) const {
  CDPF_CHECK_MSG(radius >= 0.0, "radius must be non-negative");
  // A disk of diameter 2r spans at most floor(2r / cell) + 2 cells along
  // each axis.
  const double span = std::floor(2.0 * radius / index_->cell_size()) + 2.0;
  const double cells = span * span;
  const double bound = static_cast<double>(index_->max_cell_population()) * cells;
  return bound < static_cast<double>(nodes_.size()) ? static_cast<std::size_t>(bound)
                                                     : nodes_.size();
}

template <double (*Distance)(geom::Vec2, geom::Vec2)>
NodeId Network::nearest_comm_neighbour(NodeId u, geom::Vec2 target, double bound) const {
  CDPF_CHECK_MSG(u < nodes_.size(), "node id out of range");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Every node of cell c at true distance d from target believes itself at
  // least d - cell_displacement_[c] away (triangle inequality), and every
  // node at all at least d - cell_displacement_.back() (the ring bound). The
  // rounding in the cell bounds, the grid's cell assignment, the
  // displacement and the ranked distances is a few ulp of the coordinates
  // involved; the slack, 1e-9 of their scale, dwarfs it, so no candidate
  // that could tie is skipped.
  const geom::Aabb& field = config_.field;
  const double scale = std::abs(target.x) + std::abs(target.y) + std::abs(field.lo.x) +
                       std::abs(field.lo.y) + std::abs(field.hi.x) + std::abs(field.hi.y) +
                       config_.comm_radius + index_->cell_size();
  auto floor = [&](double cell_distance, std::size_t cell) {
    const double displacement =
        cell_displacement_.empty() ? 0.0 : cell_displacement_[cell];
    const double reach = cell_distance - displacement - 1e-9 * (scale + displacement);
    // Distance({0, 0}, {reach, 0}) without libm: hypot(x, +-0) is |x| (C
    // Annex F), and the squared distance is reach * reach + 0.
    if constexpr (kRanksByHypot<Distance>) {
      return reach > 0.0 ? reach : -kInf;
    } else {
      return reach > 0.0 ? reach * reach : -kInf;
    }
  };
  // geom::distance ranks by hypot, a libm call; the squared distance costs
  // two multiplies. A point whose squared distance exceeds the least one
  // seen so far (or the squared bound) by more than a 1e-12 relative margin
  // lies farther than that point by far more than hypot's error of an ulp
  // (the 2^-1000 covers squares that underflow), so it can neither win nor
  // tie: it gets +inf and no hypot. Every point that could is still ranked
  // by hypot, and the lowest slot still wins a tie. u itself and inactive
  // nodes get +inf too, decided by a select rather than a branch: under
  // duty cycling they fall at random.
  auto limit_of = [](double squared) { return squared * (1.0 + 1e-12) + 0x1.0p-1000; };
  double least_squared = bound * bound;
  double limit = limit_of(least_squared);
  auto rank = [&](std::size_t v, std::size_t slot, geom::Vec2 p) {
    const bool candidate = (v != u) & (slot_active_[slot] != 0);
    const double squared = geom::distance_squared(p, target);
    if constexpr (kRanksByHypot<Distance>) {
      if (!candidate | (squared > limit)) {
        return kInf;
      }
      if (squared < least_squared) {
        least_squared = squared;
        limit = limit_of(squared);
      }
      return geom::distance(p, target);
    } else {
      return candidate ? squared : kInf;
    }
  };
  // Ranked by believed positions when installed, else by the grid's own
  // copy of the true ones (the same doubles as nodes_[v].position).
  auto nearest = [&](auto&& position_of) {
    return index_->nearest_in_disk(
        nodes_[u].position, config_.comm_radius, target, bound,
        [&](std::size_t v, std::size_t slot, double x, double y) {
          return rank(v, slot, position_of(v, x, y));
        },
        floor);
  };
  const std::size_t id =
      believed_positions_.empty()
          ? nearest([](std::size_t, double x, double y) { return geom::Vec2{x, y}; })
          : nearest([this](std::size_t v, double, double) {
              return believed_positions_[v];
            });
  return id == index_->size() ? kInvalidNodeId : static_cast<NodeId>(id);
}

template NodeId Network::nearest_comm_neighbour<geom::distance>(NodeId, geom::Vec2,
                                                                 double) const;
template NodeId Network::nearest_comm_neighbour<geom::distance_squared>(NodeId, geom::Vec2,
                                                                         double) const;

std::size_t Network::active_comm_disk_count(NodeId id) const {
  CDPF_CHECK_MSG(id < nodes_.size(), "node id out of range");
  if (comm_count_epoch_[id] == activity_epoch_) {
    return comm_count_[id];
  }
  const std::size_t count =
      count_active_within(nodes_[id].position, config_.comm_radius);
  comm_count_[id] = count;
  comm_count_epoch_[id] = activity_epoch_;
  return count;
}

std::size_t Network::detecting_nodes(geom::Vec2 target, std::vector<NodeId>& out) const {
  return active_nodes_within(target, config_.sensing_radius, out);
}

}  // namespace cdpf::wsn
