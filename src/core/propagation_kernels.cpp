#include "core/propagation_kernels.hpp"

#include <cmath>
#include <cstdint>

#include "support/check.hpp"
#include "support/kernel_clones.hpp"

namespace cdpf::core {

// Both gates and the probability are computed for every node and combined
// by a select, so the loop has no data-dependent branch. The probability is
// not tested here: clamped at 0, it is 0 exactly where the linear model
// rejects a node inside the record gate, and the caller tests it.
CDPF_KERNEL_CLONES
void record_probabilities(const wsn::Network::SlotBlock& block, geom::Vec2 host_true,
                          double comm_radius_sq, geom::Vec2 predicted, double record_gate_sq,
                          const tracking::LinearProbabilityModel& lin_prob,
                          double* __restrict out) {
  CDPF_ASSERT(comm_radius_sq >= 0.0 && record_gate_sq >= 0.0);
  const double* __restrict x = block.x;
  const double* __restrict y = block.y;
  const double* __restrict bx = block.believed_x;
  const double* __restrict by = block.believed_y;
  const std::size_t n = block.size;
  const double hx = host_true.x;
  const double hy = host_true.y;
  const double px = predicted.x;
  const double py = predicted.y;
  const tracking::LinearProbabilityModel model = lin_prob;
  for (std::size_t j = 0; j < n; ++j) {  // cdpf-check: vectorized
    const double dxt = x[j] - hx;
    const double dyt = y[j] - hy;
    const double dxp = bx[j] - px;
    const double dyp = by[j] - py;
    const double d2p = dxp * dxp + dyp * dyp;
    const double p = model.probability_unchecked(std::sqrt(d2p));
    out[j] = (dxt * dxt + dyt * dyt <= comm_radius_sq) & (d2p <= record_gate_sq) ? p : 0.0;
  }
}

// A copy on the host divides its speed by sqrt(1.0), and the select then
// keeps (speed, heading) unchanged.
CDPF_KERNEL_CLONES
bool divide_copies(std::size_t n, double weight, double probability_sum,
                   double* __restrict weights, const double* __restrict hop_x,
                   const double* __restrict hop_y, double* __restrict velocity_x,
                   double* __restrict velocity_y) {
  CDPF_ASSERT(probability_sum > 0.0);
  std::uint64_t on_host = 0;
  for (std::size_t i = 0; i < n; ++i) {  // cdpf-check: vectorized
    weights[i] = weight * weights[i] / probability_sum;
    const double d2 = hop_x[i] * hop_x[i] + hop_y[i] * hop_y[i];
    const bool hop = d2 > 1e-12;
    const double speed = velocity_x[i];
    const double scale = speed / std::sqrt(hop ? d2 : 1.0);
    velocity_x[i] = hop ? hop_x[i] * scale : speed;
    velocity_y[i] = hop ? hop_y[i] * scale : velocity_y[i];
    on_host |= static_cast<std::uint64_t>(!hop);
  }
  return on_host != 0;
}

}  // namespace cdpf::core
