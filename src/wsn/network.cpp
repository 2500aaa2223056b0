#include "wsn/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace cdpf::wsn {

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
  if (inactive_count_ == 0) {
    return index_->count_disk(center, radius);
  }
  return index_->count_disk_marked(center, radius, slot_active_, cell_active_);
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
    return reach > 0.0 ? Distance(geom::Vec2{}, geom::Vec2{reach, 0.0}) : -kInf;
  };
  // Ranked by believed positions when installed, else by the grid's own
  // copy of the true ones (the same doubles as nodes_[v].position).
  auto nearest = [&](auto&& position_of) {
    return index_->nearest_in_disk(
        nodes_[u].position, config_.comm_radius, target, bound,
        [&](std::size_t v, std::size_t slot, double x, double y) {
          return v == u || slot_active_[slot] == 0
                     ? kInf
                     : Distance(position_of(v, x, y), target);
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
