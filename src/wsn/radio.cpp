#include "wsn/radio.hpp"

#include "support/check.hpp"

namespace cdpf::wsn {

Radio::Radio(Network& network, PayloadSizes payloads, EnergyModel* energy)
    : network_(network), payloads_(payloads), energy_(energy) {}

bool Radio::in_range(NodeId u, NodeId v) const {
  return network_.in_comm_range(u, v);
}

std::size_t Radio::broadcast(NodeId from, MessageKind kind, std::size_t payload_bytes) {
  CDPF_CHECK_MSG(network_.is_active(from), "only active nodes can transmit");
  // The sender is active and at distance zero from its own position, so the
  // disk count always includes it; receivers exclude it.
  const std::size_t receivers = network_.active_comm_disk_count(from) - 1;
  stats_.record(kind, payload_bytes, receivers);
  if (energy_ != nullptr) {
    const double rc = network_.config().comm_radius;
    energy_->charge_tx(from, payload_bytes, rc);
    network_.visit_active_within(network_.true_position(from), rc,
                                 [&](NodeId receiver, geom::Vec2, geom::Vec2) {
                                   if (receiver != from) {
                                     energy_->charge_rx(receiver, payload_bytes);
                                   }
                                 });
  }
  return receivers;
}

bool Radio::unicast(NodeId from, NodeId to, MessageKind kind, std::size_t payload_bytes) {
  CDPF_CHECK_MSG(network_.is_active(from), "only active nodes can transmit");
  if (!network_.is_active(to) || !in_range(from, to)) {
    return false;
  }
  stats_.record(kind, payload_bytes, 1);
  if (energy_ != nullptr) {
    energy_->charge_tx(from, payload_bytes,
                       geom::distance(network_.true_position(from),
                                      network_.true_position(to)));
    energy_->charge_rx(to, payload_bytes);
  }
  return true;
}

void Radio::transceiver_broadcast(MessageKind kind, std::size_t payload_bytes) {
  if (energy_ != nullptr) {
    for (const Node& n : network_.nodes()) {
      if (n.active()) {
        energy_->charge_rx(n.id, payload_bytes);
      }
    }
  }
  stats_.record(kind, payload_bytes, network_.active_count());
}

void Radio::send_to_transceiver(NodeId from, MessageKind kind,
                                std::size_t payload_bytes) {
  CDPF_CHECK_MSG(network_.is_active(from), "only active nodes can transmit");
  stats_.record(kind, payload_bytes, 1);
  if (energy_ != nullptr) {
    energy_->charge_tx(from, payload_bytes, network_.config().comm_radius);
  }
}

}  // namespace cdpf::wsn
