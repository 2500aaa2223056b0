// Sensor node model.
//
// Nodes are static (positions known a priori via GPS or localization, per
// the paper's network model) and carry two radii: a sensing radius r_s and a
// communication radius r_c. The paper's key geometric assumption is
// r_s <= r_c / 2, which makes overhearing-based weight aggregation complete;
// NetworkConfig validates but does not force it, because one ablation bench
// explores what happens when the assumption is violated.
#pragma once

#include <cstdint>

#include "geom/vec2.hpp"

namespace cdpf::wsn {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNodeId = static_cast<NodeId>(-1);

/// Power state of a duty-cycled node.
enum class PowerState : std::uint8_t {
  kAwake,   // radio on: can transmit, receive and sense
  kAsleep,  // radio off: misses transmissions, does not sense
};

struct Node {
  NodeId id = kInvalidNodeId;
  /// The node's slot in the network's spatial grid (geom::GridIndex's CSR
  /// order), where the network keeps its activity byte, and the grid cell
  /// that holds it. Set by Network when it first deactivates a node (0
  /// until then).
  std::uint32_t grid_slot = 0;
  geom::Vec2 position;
  bool alive = true;
  PowerState power = PowerState::kAwake;
  std::uint32_t grid_cell = 0;

  /// A node participates in sensing/communication only when alive and awake.
  bool active() const { return alive && power == PowerState::kAwake; }
};
// The grid slot and cell live in what would be padding: the node table
// stays 32 B a node.
static_assert(sizeof(Node) == 32, "Node must stay 32 bytes");

}  // namespace cdpf::wsn
