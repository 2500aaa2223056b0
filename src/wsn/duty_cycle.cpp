#include "wsn/duty_cycle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "support/check.hpp"

namespace cdpf::wsn {

DutyCycleSchedule::DutyCycleSchedule(double period, double awake_fraction,
                                     std::uint64_t random_phase_seed)
    : period_(period), awake_fraction_(awake_fraction), seed_(random_phase_seed) {
  CDPF_CHECK_MSG(period >= 1.0 && period <= kMaxPeriod && period == std::floor(period),
                 "duty-cycle period must be a whole number of seconds in [1, 2^26]");
  CDPF_CHECK_MSG(awake_fraction >= 0.0 && awake_fraction <= 1.0,
                 "awake fraction must be within [0, 1]");
}

void DutyCycleSchedule::apply(Network& network, double t) const {
  // Blocks of 64 nodes: first the schedule decides every node of the block
  // into a bit mask of flips, then only the flipped nodes are written. The
  // flips (a fifth of the nodes per 1 s step at a 10 s period) fall at
  // random, so a branch on each decision would mispredict and discard the
  // decisions of the nodes after it already in flight.
  const std::vector<Node>& nodes = network.nodes();
  constexpr std::size_t kBlock = 64;
  for (std::size_t begin = 0; begin < nodes.size(); begin += kBlock) {
    const std::size_t end = std::min(nodes.size(), begin + kBlock);
    std::uint64_t flips = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const Node& n = nodes[i];
      const bool awake = is_awake(n.id, t);
      const bool flip = n.alive & (awake != (n.power == PowerState::kAwake));
      flips |= std::uint64_t{flip} << (i - begin);
    }
    for (; flips != 0; flips &= flips - 1) {
      const Node& n = nodes[begin + static_cast<std::size_t>(std::countr_zero(flips))];
      network.set_power(n.id, n.power == PowerState::kAwake ? PowerState::kAsleep
                                                            : PowerState::kAwake);
    }
  }
}

TdssScheduler::TdssScheduler(Network& network, double wake_radius)
    : network_(network), wake_radius_(wake_radius) {
  CDPF_CHECK_MSG(wake_radius > 0.0, "wake radius must be positive");
}

std::size_t TdssScheduler::wake_predicted_area(geom::Vec2 predicted, Radio* radio) {
  network_.nodes_within(predicted, wake_radius_, scratch_);
  // The beacon is sent by an already-awake node in the area (if any): TDSS
  // wake-up is initiated by the nodes currently tracking the target.
  if (radio != nullptr) {
    for (const NodeId id : scratch_) {
      if (network_.is_active(id)) {
        radio->broadcast(id, MessageKind::kControl, radio->payloads().control);
        break;
      }
    }
  }
  std::size_t woken = 0;
  for (const NodeId id : scratch_) {
    const Node& n = network_.node(id);
    if (n.alive && n.power == PowerState::kAsleep) {
      network_.set_power(id, PowerState::kAwake);
      ++woken;
    }
  }
  return woken;
}

}  // namespace cdpf::wsn
