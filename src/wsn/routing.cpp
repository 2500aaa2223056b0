#include "wsn/routing.hpp"

#include <limits>

#include "support/check.hpp"

namespace cdpf::wsn {

GreedyGeographicRouter::GreedyGeographicRouter(const Network& network)
    : network_(network) {}

bool GreedyGeographicRouter::route_into(NodeId from, NodeId to,
                                        std::vector<NodeId>& path) const {
  CDPF_CHECK_MSG(network_.is_active(from), "route source must be active");
  CDPF_CHECK_MSG(network_.is_active(to), "route destination must be active");

  if (next_hop_.size() != network_.size()) {
    next_hop_.assign(network_.size(), kInvalidNodeId);
    next_hop_stamp_.assign(network_.size(), 0);
    // A route visits each node at most once.
    path_.reserve(network_.size() + 1);
  }
  if (to != memo_destination_ || network_.activity_epoch() != memo_epoch_) {
    ++memo_stamp_;
    memo_destination_ = to;
    memo_epoch_ = network_.activity_epoch();
  }

  const geom::Vec2 destination = network_.position(to);
  path.clear();
  path.push_back(from);
  NodeId current = from;
  // The path length is bounded by the network diameter in hops; greedy
  // strictly decreases the distance to the destination each hop, so the
  // loop terminates. The explicit bound is a belt-and-braces guard.
  const std::size_t max_hops = network_.size() + 1;
  while (current != to && path.size() <= max_hops) {
    if (next_hop_stamp_[current] != memo_stamp_) {
      // The neighbours are the radio's: the disk at r_c around current's
      // true position. Greedy ranks them by the positions the nodes believe
      // they hold, and only a neighbour strictly closer than current wins.
      next_hop_[current] = network_.nearest_comm_neighbour<geom::distance>(
          current, destination, geom::distance(network_.position(current), destination));
      next_hop_stamp_[current] = memo_stamp_;
    }
    const NodeId best = next_hop_[current];
    if (best == kInvalidNodeId) {
      return false;  // greedy void: no strictly closer neighbor
    }
    path.push_back(best);
    current = best;
  }
  return current == to;
}

std::optional<std::size_t> GreedyGeographicRouter::send(Radio& radio, NodeId from,
                                                        NodeId to, MessageKind kind,
                                                        std::size_t payload_bytes) const {
  if (!route_into(from, to, path_)) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i + 1 < path_.size(); ++i) {
    const bool delivered = radio.unicast(path_[i], path_[i + 1], kind, payload_bytes);
    CDPF_ASSERT(delivered);
    (void)delivered;
  }
  return path_.size() - 1;
}

}  // namespace cdpf::wsn
