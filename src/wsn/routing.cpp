#include "wsn/routing.hpp"

#include <limits>

#include "support/check.hpp"

namespace cdpf::wsn {

GreedyGeographicRouter::GreedyGeographicRouter(const Network& network)
    : network_(network) {}

NodeId GreedyGeographicRouter::scan_next_hop(NodeId current, geom::Vec2 destination,
                                             std::vector<NodeId>& neighbors) const {
  const geom::Vec2 here = network_.position(current);
  const double current_dist = geom::distance(here, destination);
  network_.active_nodes_within(here, network_.config().comm_radius, neighbors);
  NodeId best = kInvalidNodeId;
  double best_dist = current_dist;
  for (const NodeId n : neighbors) {
    if (n == current) {
      continue;
    }
    // The disk query runs on true positions around current's believed one;
    // under believed positions it can return nodes the radio's link
    // predicate rejects, and a hop the radio cannot deliver is no hop.
    const geom::Vec2 there = network_.position(n);
    if (!network_.in_comm_range(here, there)) {
      continue;
    }
    const double d = geom::distance(there, destination);
    if (d < best_dist) {
      best_dist = d;
      best = n;
    }
  }
  return best;
}

bool GreedyGeographicRouter::route_into(NodeId from, NodeId to,
                                        std::vector<NodeId>& path,
                                        std::vector<NodeId>& neighbors) const {
  CDPF_CHECK_MSG(network_.is_active(from), "route source must be active");
  CDPF_CHECK_MSG(network_.is_active(to), "route destination must be active");

  if (next_hop_.size() != network_.size()) {
    next_hop_.assign(network_.size(), kInvalidNodeId);
    next_hop_stamp_.assign(network_.size(), 0);
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
      next_hop_[current] = scan_next_hop(current, destination, neighbors);
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

std::optional<std::vector<NodeId>> GreedyGeographicRouter::route(NodeId from,
                                                                 NodeId to) const {
  std::vector<NodeId> path;
  std::vector<NodeId> neighbors;
  if (!route_into(from, to, path, neighbors)) {
    return std::nullopt;
  }
  return path;
}

std::optional<std::size_t> GreedyGeographicRouter::hop_count(NodeId from,
                                                             NodeId to) const {
  const auto path = route(from, to);
  if (!path) {
    return std::nullopt;
  }
  return path->size() - 1;
}

std::optional<std::size_t> GreedyGeographicRouter::send(Radio& radio, NodeId from,
                                                        NodeId to, MessageKind kind,
                                                        std::size_t payload_bytes) const {
  std::vector<NodeId> path;
  std::vector<NodeId> neighbors;
  return send(radio, from, to, kind, payload_bytes, path, neighbors);
}

std::optional<std::size_t> GreedyGeographicRouter::send(
    Radio& radio, NodeId from, NodeId to, MessageKind kind, std::size_t payload_bytes,
    std::vector<NodeId>& path, std::vector<NodeId>& neighbors) const {
  if (!route_into(from, to, path, neighbors)) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const bool delivered = radio.unicast(path[i], path[i + 1], kind, payload_bytes);
    CDPF_ASSERT(delivered);
    (void)delivered;
  }
  return path.size() - 1;
}

}  // namespace cdpf::wsn
