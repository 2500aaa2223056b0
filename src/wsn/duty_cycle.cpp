#include "wsn/duty_cycle.hpp"

#include <cmath>

#include "random/engine.hpp"
#include "support/check.hpp"

namespace cdpf::wsn {

DutyCycleSchedule::DutyCycleSchedule(double period, double awake_fraction,
                                     std::uint64_t random_phase_seed)
    : period_(period), awake_fraction_(awake_fraction), seed_(random_phase_seed) {
  CDPF_CHECK_MSG(period > 0.0, "duty-cycle period must be positive");
  CDPF_CHECK_MSG(awake_fraction >= 0.0 && awake_fraction <= 1.0,
                 "awake fraction must be within [0, 1]");
}

double DutyCycleSchedule::phase(NodeId node) const {
  // splitmix64 as a deterministic hash; when seed_ == 0 the phase still
  // depends only on the id, i.e. the pattern is fixed and anticipatable.
  rng::SplitMix64 hash(seed_ ^ (node + 1));
  const double u = static_cast<double>(hash() >> 11) * 0x1.0p-53;
  return u * period_;
}

bool DutyCycleSchedule::is_awake(NodeId node, double t) const {
  if (awake_fraction_ >= 1.0) {
    return true;
  }
  if (awake_fraction_ <= 0.0) {
    return false;
  }
  const double local = std::fmod(t + phase(node), period_);
  return local < awake_fraction_ * period_;
}

void DutyCycleSchedule::apply(Network& network, double t) const {
  for (const Node& n : network.nodes()) {
    if (!n.alive) {
      continue;
    }
    network.set_power(n.id, is_awake(n.id, t) ? PowerState::kAwake : PowerState::kAsleep);
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
        radio->broadcast_count(id, MessageKind::kControl, radio->payloads().control);
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
