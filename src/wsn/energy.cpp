#include "wsn/energy.hpp"

#include <algorithm>
#include <numeric>

#include "support/check.hpp"

namespace cdpf::wsn {

EnergyModel::EnergyModel(std::size_t num_nodes, EnergyParams params)
    : params_(params), consumed_uj_(num_nodes, 0.0) {
  CDPF_CHECK_MSG(num_nodes > 0, "energy model needs at least one node");
}

void EnergyModel::charge_tx(NodeId node, std::size_t bytes, double range_m) {
  CDPF_CHECK_MSG(node < consumed_uj_.size(), "node id out of range");
  consumed_uj_[node] +=
      static_cast<double>(bytes) *
      (params_.e_elec_uj_per_byte + params_.e_amp_uj_per_byte_m2 * range_m * range_m);
}

void EnergyModel::charge_rx(NodeId node, std::size_t bytes) {
  CDPF_CHECK_MSG(node < consumed_uj_.size(), "node id out of range");
  consumed_uj_[node] += static_cast<double>(bytes) * params_.e_elec_uj_per_byte;
}

double EnergyModel::total_consumed_uj() const {
  return std::accumulate(consumed_uj_.begin(), consumed_uj_.end(), 0.0);
}

double EnergyModel::max_consumed_uj() const {
  return consumed_uj_.empty() ? 0.0
                              : *std::max_element(consumed_uj_.begin(), consumed_uj_.end());
}

}  // namespace cdpf::wsn
