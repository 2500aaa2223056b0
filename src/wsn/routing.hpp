// Greedy geographic routing.
//
// CPF convergecasts every measurement to the sink over multiple hops. The
// paper does not specify a routing protocol, only that "any node can
// propagate the particle data to the sink node in the center of the network
// within four hops at the most" for its geometry; greedy geographic
// forwarding (always forward to the neighbor closest to the destination)
// reproduces exactly that bound for the evaluated densities and is standard
// for position-aware WSNs.
//
// Greedy forwarding is memoryless: the next hop from a node depends only on
// that node, the destination, the active set and the positions the
// algorithms read. The router therefore memoizes it lazily — one entry per
// node, filled on first use and valid for one (destination,
// Network::activity_epoch()) key. A miss asks the network for the
// neighbour nearest the destination (Network::nearest_comm_neighbour, a
// pruned grid search that returns exactly what a scan of the whole radio
// disk returns), so memoized routes are the scanned routes, tie-breaks and
// voids included. The path buffer send() routes through lives beside the
// memo and is sized with it, so a warm router sends without allocating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "wsn/network.hpp"
#include "wsn/radio.hpp"

namespace cdpf::wsn {

/// Not thread-safe: the next-hop memo is mutable state behind const
/// queries. Give each thread (each tracker) its own router.
class GreedyGeographicRouter {
 public:
  explicit GreedyGeographicRouter(const Network& network);

  /// Writes the node sequence from `from` to `to` (inclusive on both ends)
  /// into `path` (cleared first). Returns false when greedy forwarding hits
  /// a void — no neighbor closer to the destination than the current node
  /// (path contents are then unspecified). The route length minus one is
  /// its hop count.
  bool route_into(NodeId from, NodeId to, std::vector<NodeId>& path) const;

  /// The same route; `neighbors` is unused, since the next-hop query needs
  /// no scratch. Kept for callers of the scratch-taking form (perfbench's
  /// route probe).
  bool route_into(NodeId from, NodeId to, std::vector<NodeId>& path,
                  std::vector<NodeId>& /*neighbors*/) const {
    return route_into(from, to, path);
  }

  /// Send `payload_bytes` from `from` to `to` hop by hop, recording one
  /// unicast per hop in `radio`. Returns the hop count, or nullopt when no
  /// route exists (nothing is recorded then).
  std::optional<std::size_t> send(Radio& radio, NodeId from, NodeId to,
                                  MessageKind kind, std::size_t payload_bytes) const;

 private:
  const Network& network_;
  // Lazy next-hop memo: next_hop_[n] is valid while next_hop_stamp_[n] ==
  // memo_stamp_. Changing the (destination, activity epoch) key bumps
  // memo_stamp_, which invalidates every entry in O(1). Sized on the first
  // route, together with send()'s path scratch, so constructing a router
  // stays free.
  mutable std::vector<NodeId> next_hop_;
  mutable std::vector<std::uint64_t> next_hop_stamp_;
  mutable std::uint64_t memo_stamp_ = 0;
  mutable NodeId memo_destination_ = kInvalidNodeId;
  mutable std::uint64_t memo_epoch_ = 0;
  mutable std::vector<NodeId> path_;
};

}  // namespace cdpf::wsn
