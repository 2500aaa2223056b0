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
#include <vector>

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

  /// Broadcast `payload_bytes` from `from`; every active node within r_c
  /// (excluding the sender) receives it. Writes the receiver set into `out`
  /// (cleared first) and records one message + payload bytes + reception
  /// count.
  void broadcast(NodeId from, MessageKind kind, std::size_t payload_bytes,
                 std::vector<NodeId>& out);

  /// Broadcast without materializing the receiver set: records exactly the
  /// statistics broadcast() would and returns the receiver count. Falls back
  /// to the materializing path (into an internal scratch buffer) when energy
  /// accounting has to charge each receiver.
  std::size_t broadcast_count(NodeId from, MessageKind kind,
                              std::size_t payload_bytes);

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
  std::vector<NodeId> scratch_;
};

}  // namespace cdpf::wsn
