#include "wsn/duty_cycle.hpp"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "support/check.hpp"
#include "support/kernel_clones.hpp"
#include "support/lane_bits.hpp"

namespace cdpf::wsn {

namespace {

/// The exact double of a whole number below 2^53: its high and low 32 bits
/// are planted in the mantissas of 2^84 and 2^52, and the biases
/// subtracted. Every step is exact, and unlike a 64-bit integer conversion
/// it needs no AVX-512DQ, so it vectorizes in every clone.
inline double whole_to_double(std::uint64_t v) {
  const double hi = std::bit_cast<double>((v >> 32) | 0x4530000000000000ULL) - 0x1.0p84;
  const double lo = std::bit_cast<double>((v & 0xffffffffULL) | 0x4330000000000000ULL) - 0x1.0p52;
  return hi + lo;
}

/// Bit j set when node ids[j] is scheduled awake at time t, for the n <= 64
/// ids of a block: DutyCycleSchedule::is_awake bit for bit, with the
/// schedule's checks hoisted into apply(). The phase is phase()'s SplitMix64
/// hash, lane by lane. The remainder takes the quotient by the reciprocal,
/// rounds it down to a whole number without a 64-bit conversion (adding and
/// subtracting 2^52 rounds a quotient below 2^52 to the nearest whole
/// number, and one step down floors it) and then applies is_awake's
/// correction. The whole number is off the exact quotient's floor by at most
/// one: at period 1 the quotient is x itself, floored exactly below 2^52 and
/// rounded to an even neighbour above; for a longer whole period it lies
/// below 2^51 + 2^25, off the exact one by at most 2^-52 of itself, under 1.
/// So the remainder lies in [-period, 2 * period) and is exact (by
/// is_awake's argument, or by Sterbenz's lemma when the period exceeds half
/// of x), and one correction lands it on fmod's. The sign of the remainder
/// minus the threshold is the comparison, as a bit.
CDPF_KERNEL_CLONES
std::uint64_t awake_mask(const std::size_t* __restrict ids, std::size_t n, std::uint64_t seed,
                         double t, double period, double inv_period, double threshold) {
  CDPF_ASSERT(n <= support::kLaneBits.size());
  // phase() scales the hash by 2^-53 and then by the period; scaling by a
  // power of two is exact, so one multiply by period * 2^-53 rounds alike.
  const double phase_unit = period * 0x1.0p-53;
  std::uint64_t mask = 0;
  for (std::size_t j = 0; j < n; ++j) {  // cdpf-check: vectorized
    const std::uint64_t z0 = (seed ^ (ids[j] + 1)) + 0x9e3779b97f4a7c15ULL;
    const std::uint64_t z1 = (z0 ^ (z0 >> 30)) * 0xbf58476d1ce4e5b9ULL;
    const std::uint64_t z2 = (z1 ^ (z1 >> 27)) * 0x94d049bb133111ebULL;
    const double x = t + whole_to_double((z2 ^ (z2 >> 31)) >> 11) * phase_unit;
    const double q = x * inv_period;
    const double nearest = (q + 0x1.0p52) - 0x1.0p52;
    const double whole = nearest > q ? nearest - 1.0 : nearest;
    const double rem = x - whole * period;
    const double local = rem < 0.0 ? rem + period : rem >= period ? rem - period : rem;
    const std::uint64_t awake = std::bit_cast<std::uint64_t>(local - threshold) >> 63;
    mask |= support::kLaneBits[j] & (0 - awake);
  }
  return mask;
}

}  // namespace

DutyCycleSchedule::DutyCycleSchedule(double period, double awake_fraction,
                                     std::uint64_t random_phase_seed)
    : period_(period), awake_fraction_(awake_fraction), seed_(random_phase_seed) {
  CDPF_CHECK_MSG(period >= 1.0 && period <= kMaxPeriod && period == std::floor(period),
                 "duty-cycle period must be a whole number of seconds in [1, 2^26]");
  CDPF_CHECK_MSG(awake_fraction >= 0.0 && awake_fraction <= 1.0,
                 "awake fraction must be within [0, 1]");
}

void DutyCycleSchedule::apply(Network& network, double t) const {
  CDPF_CHECK_MSG(t >= 0.0 && t <= kMaxTime, "duty-cycle time must be within [0, 2^52] s");
  // is_awake's two early answers are the formula's own: with the fraction
  // at 1 every remainder lies below the period, and at 0 none lies below 0.
  const double inv_period = 1.0 / period_;
  const double threshold = awake_fraction_ * period_;
  network.set_power_by_slot([&](const std::size_t* ids, std::size_t n) {
    return awake_mask(ids, n, seed_, t, period_, inv_period, threshold);
  });
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
