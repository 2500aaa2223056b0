// Protocol-model radio (Gupta & Kumar): reception depends only on Euclidean
// distance — a transmission from node u is received by every *active* node
// within the communication radius r_c, including nodes the sender did not
// address (the overhearing effect CDPF exploits for weight aggregation).
//
// The simulator models a single-target tracking workload where transmissions
// are locally serialized (TDMA-style), so concurrent-interference collisions
// are not simulated; the interference predicate of the protocol model is
// still exposed for the tests and for future multi-target workloads.
#pragma once

#include <cstddef>

#include "wsn/comm_stats.hpp"
#include "wsn/energy.hpp"
#include "wsn/message.hpp"
#include "wsn/network.hpp"

namespace cdpf::wsn {

class Radio {
 public:
  /// `energy` may be nullptr when energy accounting is not needed.
  Radio(Network& network, PayloadSizes payloads, EnergyModel* energy = nullptr);

  const PayloadSizes& payloads() const { return payloads_; }
  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }

  /// Can u and v communicate directly under the protocol model? Like every
  /// radio rule here, it reads true positions (Network::in_comm_range).
  bool in_range(NodeId u, NodeId v) const;

  /// Broadcast `payload_bytes` from `from`; every active node within r_c of
  /// its true position (excluding the sender) receives it. Records one
  /// message + payload bytes + reception count and returns the receiver
  /// count, memoized by Network::active_comm_disk_count. With an energy
  /// model the sender pays for transmitting and each receiver, visited
  /// through Network::visit_active_within, for receiving.
  std::size_t broadcast(NodeId from, MessageKind kind, std::size_t payload_bytes);

  /// One-hop unicast; requires the receiver to be active and in range.
  /// Returns false (recording nothing) when the link does not exist.
  bool unicast(NodeId from, NodeId to, MessageKind kind, std::size_t payload_bytes);

  /// Transmission from an out-of-band global transceiver (SDPF): reaches
  /// every active node in the network in one hop by assumption. O(1)
  /// without an energy model; with one, each receiver is charged.
  void transceiver_broadcast(MessageKind kind, std::size_t payload_bytes);

  /// Transmission from a node *to* the global transceiver (always in range
  /// by the SDPF assumption).
  void send_to_transceiver(NodeId from, MessageKind kind, std::size_t payload_bytes);

 private:
  Network& network_;
  PayloadSizes payloads_;
  CommStats stats_;
  EnergyModel* energy_;
};

}  // namespace cdpf::wsn
