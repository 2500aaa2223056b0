// Common interface of the four tracking algorithms (CPF, DPF, SDPF, CDPF /
// CDPF-NE) so the simulation engine and the benches can drive them
// uniformly.
#pragma once

#include <string_view>
#include <vector>

#include "geom/vec2.hpp"
#include "random/rng.hpp"
#include "tracking/state.hpp"
#include "wsn/comm_stats.hpp"

namespace cdpf::core {

/// Velocity prior of newly created particles, N(mean, sigma^2) per axis,
/// shared by every tracker: the paper's target enters heading east at
/// 3 m/s (the entry gate is known).
inline constexpr geom::Vec2 kInitialVelocityMean{3.0, 0.0};
inline constexpr double kInitialVelocitySigma = 1.0;

/// Position prior (m) of the sink-side particle cloud (CPF and DPF)
/// around the centroid of the first detecting nodes: ~ the sensing radius.
inline constexpr double kInitialPositionSigma = 10.0;

/// An estimate together with the absolute time it refers to. CDPF's
/// correction step produces the estimate for the *previous* iteration, so
/// the reference time can lag the iteration time.
struct TimedEstimate {
  tracking::TargetState state;
  double time = 0.0;
};

/// Abstract driver interface over one tracking algorithm instance bound to
/// a deployed network. Implementations are deterministic: two instances
/// constructed over the same network and fed the same (truth, time, rng)
/// sequence produce bitwise-identical estimates and communication counts.
/// Not thread-safe — the engine drives each instance from one thread.
class TrackerAlgorithm {
 public:
  virtual ~TrackerAlgorithm() = default;

  TrackerAlgorithm() = default;
  TrackerAlgorithm(const TrackerAlgorithm&) = delete;
  TrackerAlgorithm& operator=(const TrackerAlgorithm&) = delete;

  /// Stable display name ("CDPF", "CDPF-NE", "SDPF", ...), used as the row
  /// key in bench tables; the storage outlives the tracker.
  virtual std::string_view name() const = 0;

  /// Filter iteration period in seconds (the engine calls iterate() at
  /// multiples of it).
  virtual double time_step() const = 0;

  /// Run one filter iteration at absolute time `time`. `truth` is the
  /// ground-truth target state at that time, used ONLY to decide which
  /// nodes detect the target and to synthesize their noisy measurements —
  /// the algorithms never read it directly.
  virtual void iterate(const tracking::TargetState& truth, double time,
                       rng::Rng& rng) = 0;

  /// Estimates produced since the last call (possibly empty, possibly
  /// referring to an earlier time than the last iterate()). Copy-out rather
  /// than move-out: moving would strip pending_estimates_ of its capacity
  /// and force a reallocation on the next iteration, breaking the
  /// zero-allocation steady state between periodic collections.
  std::vector<TimedEstimate> take_estimates() {
    std::vector<TimedEstimate> out(pending_estimates_.begin(), pending_estimates_.end());
    pending_estimates_.clear();
    return out;
  }

  /// Flush any estimate that only becomes available after the last
  /// iteration (CDPF's lagged correction); called once at the end of a run.
  virtual void finalize() {}

  /// Communication accounting accumulated so far.
  virtual const wsn::CommStats& comm_stats() const = 0;

 protected:
  /// Estimates produced but not yet collected by take_estimates().
  std::vector<TimedEstimate> pending_estimates_;
};

}  // namespace cdpf::core
