// Duty cycling and sleep scheduling.
//
// Two mechanisms from the paper:
//  * DutyCycleSchedule — periodic, per-node-phased duty cycling (Gu & He
//    style "extremely low duty-cycle" networks): a node is awake for
//    `awake_fraction` of each `period`, with a deterministic phase derived
//    from its id. Deterministic phases are exactly the "anticipatable sleep
//    pattern" CDPF-NE relies on (Section V-D); the random variant breaks
//    that anticipation and is used by the robustness ablation.
//  * TdssScheduler — the proactive wake-up of the paper's Section III-C
//    ("TDSS", Jiang et al. IPDPS'08): nodes around the predicted target
//    position are woken before the target arrives so they can receive
//    propagated particles.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/vec2.hpp"
#include "random/engine.hpp"
#include "random/rng.hpp"
#include "support/check.hpp"
#include "wsn/network.hpp"
#include "wsn/radio.hpp"

namespace cdpf::wsn {

class DutyCycleSchedule {
 public:
  /// Largest period, in seconds.
  static constexpr double kMaxPeriod = 0x1.0p26;
  /// Latest time is_awake accepts, in seconds.
  static constexpr double kMaxTime = 0x1.0p52;

  /// `period` seconds per cycle, awake for `awake_fraction` of it. When
  /// `random_phase_seed` is nonzero, phases are randomized (unanticipatable
  /// sleep pattern); otherwise the phase is a deterministic hash of the id.
  /// Precondition: `period` is a whole number of seconds in [1, kMaxPeriod].
  DutyCycleSchedule(double period, double awake_fraction,
                    std::uint64_t random_phase_seed = 0);

  double period() const { return period_; }
  double awake_fraction() const { return awake_fraction_; }

  /// Is `node` scheduled awake at time `t`, i.e. is fmod(t + phase(node),
  /// period()) below awake_fraction() * period()? Bit for bit that formula,
  /// computed without libm. Precondition: 0 <= t <= kMaxTime.
  bool is_awake(NodeId node, double t) const;

  /// Phase offset in [0, period) for `node`.
  double phase(NodeId node) const;

  /// Apply the schedule to every alive node of `network` at time `t`
  /// (nodes woken by TDSS overrides should be re-applied afterwards):
  /// is_awake for every node, decided 64 at a time in a vectorized kernel,
  /// with only the nodes whose power state flips written
  /// (Network::set_power_by_slot). Precondition: 0 <= t <= kMaxTime.
  void apply(Network& network, double t) const;

 private:
  double period_;
  double awake_fraction_;
  std::uint64_t seed_;
};

// phase() and is_awake() are the per-node form of the schedule; apply()
// computes the same bits in a kernel (duty_cycle.cpp).
inline double DutyCycleSchedule::phase(NodeId node) const {
  // splitmix64 as a deterministic hash; when seed_ == 0 the phase still
  // depends only on the id, i.e. the pattern is fixed and anticipatable.
  rng::SplitMix64 hash(seed_ ^ (node + 1));
  const double u = static_cast<double>(hash() >> 11) * 0x1.0p-53;
  return u * period_;
}

inline bool DutyCycleSchedule::is_awake(NodeId node, double t) const {
  CDPF_CHECK_MSG(t >= 0.0 && t <= kMaxTime, "duty-cycle time must be within [0, 2^52] s");
  if (awake_fraction_ >= 1.0) {
    return true;
  }
  if (awake_fraction_ <= 0.0) {
    return false;
  }
  // std::fmod(x, period_) without libm, exact under the checked
  // preconditions: 0 <= x < 2^53 and the period is a whole number, so the
  // truncated quotient n times the period is an integer below 2^53 (exact),
  // x - n * period is a multiple of ulp(x) below 2 * period (exact), and one
  // correction brings it into [0, period) should the rounded quotient have
  // crossed an integer. Same argument as geom::wrap_angle's remainder.
  const double x = t + phase(node);
  const auto n = static_cast<std::int64_t>(x / period_);
  double local = x - static_cast<double>(n) * period_;
  if (local < 0.0) {
    local += period_;
  } else if (local >= period_) {
    local -= period_;
  }
  return local < awake_fraction_ * period_;
}

/// Proactive wake-up around the predicted target position. Wake-up control
/// messages are charged to the radio when one is provided.
class TdssScheduler {
 public:
  /// Nodes within `wake_radius` of `predicted` are forced awake.
  TdssScheduler(Network& network, double wake_radius);

  /// Wake the nodes around `predicted`; returns how many transitions from
  /// asleep to awake occurred. When `radio` is non-null, one broadcast
  /// control message per waking cluster is charged (the TDSS beacon).
  std::size_t wake_predicted_area(geom::Vec2 predicted, Radio* radio = nullptr);

 private:
  Network& network_;
  double wake_radius_;
  std::vector<NodeId> scratch_;
};

}  // namespace cdpf::wsn
