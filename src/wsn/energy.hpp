// First-order radio energy model (Heinzelman et al.), used by the energy
// ablation bench: transmitting b bytes over distance d costs
//   E_tx = b * (e_elec + e_amp * d^2),
// and receiving b bytes costs E_rx = b * e_elec. All energies in
// microjoules.
#pragma once

#include <cstddef>
#include <vector>

#include "wsn/node.hpp"

namespace cdpf::wsn {

struct EnergyParams {
  double e_elec_uj_per_byte = 0.4;       // 50 nJ/bit
  double e_amp_uj_per_byte_m2 = 8e-4;    // 100 pJ/bit/m^2
};

class EnergyModel {
 public:
  EnergyModel(std::size_t num_nodes, EnergyParams params);

  void charge_tx(NodeId node, std::size_t bytes, double range_m);
  void charge_rx(NodeId node, std::size_t bytes);

  double total_consumed_uj() const;
  double max_consumed_uj() const;

 private:
  EnergyParams params_;
  std::vector<double> consumed_uj_;
};

}  // namespace cdpf::wsn
