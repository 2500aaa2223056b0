// CDPF — the Completely Distributed Particle Filter (paper §IV), and its
// improved variant CDPF-NE (§V) selected by configuration.
//
// The filter reorders the classic SIR steps so that the aggregate obtained
// by overhearing during particle propagation can replace explicit weight
// aggregation (Figure 2 of the paper):
//
//   1. Prediction  — propagate particles toward each host's predicted
//                    target position (broadcasts charged to the radio).
//   2. Correction  — normalize the propagated weights by the overheard
//                    total, resample (prune), and ESTIMATE THE PREVIOUS
//                    iteration's target position.
//   3. Likelihood  — detecting nodes broadcast measurements; every host
//                    evaluates the joint likelihood at its own position.
//                    (CDPF-NE: skipped — replaced by neighborhood
//                    estimation, eliminating those broadcasts.)
//   4. Assign weight — w_{k+1} = w_k * likelihood (or w_k * c_0).
//
// Communication per iteration: N_s (D_p + D_m + D_w) for CDPF and
// N_s (D_p + D_w) for CDPF-NE — the Table I rows this class reproduces.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/batch_kernels.hpp"
#include "core/neighborhood_estimation.hpp"
#include "core/node_particle.hpp"
#include "core/propagation.hpp"
#include "core/tracker.hpp"
#include "tracking/measurement.hpp"
#include "tracking/motion_model.hpp"
#include "wsn/network.hpp"
#include "wsn/radio.hpp"

namespace cdpf::core {

/// What a caller varies of the CDPF / CDPF-NE filter, defaulting to the
/// paper's §VI-A values. Units: seconds for times, radians for angles. The
/// predicted area (§III-B) and the estimation area (§V) are the network's
/// sensing radius r_s; the importance density is make_motion_model(dt).
struct CdpfConfig {
  /// Filter iteration period (paper: 5 s).
  double dt = 5.0;
  /// Bearing measurement noise (paper: sigma_n = 0.05 rad).
  double sigma_bearing = 0.05;

  /// false: CDPF (measurement sharing + likelihood). true: CDPF-NE
  /// (neighborhood estimation replaces the likelihood step).
  bool use_neighborhood_estimation = false;
};

/// What the sensor field reports for one filter iteration: the detecting
/// nodes and their bearing measurements, which iterate() synthesizes from
/// ground truth.
struct SensingSnapshot {
  std::vector<wsn::NodeId> detections;

  struct Measurement {
    wsn::NodeId sender;
    double bearing_rad;
  };
  std::vector<Measurement> measurements;  // broadcast in the likelihood step
};

/// The paper's filter. One instance tracks one target over one deployment;
/// every broadcast is charged to `radio` so comm_stats() reproduces the
/// Table I accounting. Deterministic: identical (network, config, rng
/// stream) input gives bitwise-identical estimates. Not thread-safe — drive
/// iterate() from a single thread.
class Cdpf final : public TrackerAlgorithm {
 public:
  /// Binds to `network`/`radio` (both must outlive the filter) and sizes
  /// all internal buffers to the node count, so steady-state iterations
  /// allocate nothing. The network's runtime state (duty cycling,
  /// failures) is honored: sleeping or dead nodes neither broadcast,
  /// record, nor measure.
  Cdpf(wsn::Network& network, wsn::Radio& radio, CdpfConfig config);

  std::string_view name() const override;
  double time_step() const override { return config_.dt; }
  void iterate(const tracking::TargetState& truth, double time, rng::Rng& rng) override;
  void finalize() override;
  const wsn::CommStats& comm_stats() const override { return radio_.stats(); }

  // -- Introspection for tests and benches --------------------------------
  /// Live view of the node-hosted particle set (weights unnormalized
  /// between the propagation and correction steps).
  const ParticleStore& particles() const { return store_; }
  /// The last propagation round's outcome (nullptr before the first round
  /// and after a round that lost the track). `->next` is a recycled buffer:
  /// the correction step swaps it with the working store instead of
  /// copying, so it holds the round's BROADCASTERS (the previous iteration's
  /// particle set, as it was broadcast), not the recorded set. Hand it to
  /// overheard_by() to see what one node overheard; use
  /// last_recorder_hosts() for the recorders. `global` describes the round.
  const PropagationOutcome* last_propagation() const {
    return has_propagation_ ? &propagation_ : nullptr;
  }
  /// Hosts that recorded a particle in the last propagation round (sorted
  /// ascending); empty before the first round.
  std::span<const wsn::NodeId> last_recorder_hosts() const { return last_recorders_; }
  /// Predicted target position for the CURRENT iteration ("slashed square"
  /// of Figure 1), available after the correction step.
  std::optional<geom::Vec2> predicted_position() const { return predicted_position_; }

  // -- Perf-bench entry points (bench/micro_kernels.cpp) -------------------
  // Expose the two weight-assignment kernels so the perf baseline can track
  // them in isolation. They mutate the store's weights like a real
  // iteration; drive a few iterate() calls first to populate the state.
  void bench_likelihood_and_assign(const SensingSnapshot& snapshot) {
    likelihood_and_assign(snapshot);
  }
  void bench_neighborhood_assign(const std::vector<wsn::NodeId>& detecting) {
    neighborhood_assign(detecting);
  }

 private:
  /// Creates one particle per detecting node of the sensed snapshot.
  void initialize_from_detections(rng::Rng& rng);
  /// Steps 3+4 of the reordered pipeline for plain CDPF.
  void likelihood_and_assign(const SensingSnapshot& snapshot);
  /// Steps 3+4 replacement for CDPF-NE.
  void neighborhood_assign(const std::vector<wsn::NodeId>& detecting);
  geom::Vec2 sample_initial_velocity(rng::Rng& rng);
  double new_particle_weight() const;

  wsn::Network& network_;
  wsn::Radio& radio_;
  CdpfConfig config_;
  tracking::RandomTurnMotionModel motion_;
  tracking::BearingMeasurementModel bearing_;

  ParticleStore store_;
  /// Reused round outcome; store_ and propagation_.next ping-pong their
  /// buffers every iteration, so a steady-state iteration allocates nothing.
  PropagationOutcome propagation_;
  PropagationScratch propagation_scratch_;
  bool has_propagation_ = false;
  std::vector<wsn::NodeId> last_recorders_;
  std::optional<geom::Vec2> predicted_position_;
  double last_iteration_time_ = 0.0;
  bool has_iterated_ = false;

  // Iteration-local workspaces, members so they stay warm across rounds.
  /// What iterate() senses from ground truth. The detecting set is
  /// pre-sized to the node count; the measurements grow to the largest
  /// detecting set seen and are then reused.
  SensingSnapshot sensed_;
  /// The likelihood step's shared measurements, sender positions resolved
  /// once per iteration.
  BearingEvidence evidence_;
  /// The hosts' positions in sorted-host order, and their weight factors.
  PointBatch host_positions_;
  std::vector<wsn::NodeId> area_nodes_;
  std::vector<geom::Vec2> area_positions_;
  std::vector<double> area_contributions_;
  // Epoch-stamped NodeId-indexed lookups for the neighborhood assignment:
  // contribution-by-host and detecting-set membership in O(1) instead of a
  // linear scan per host.
  std::vector<double> node_contribution_;
  std::vector<std::uint64_t> contribution_stamp_;
  std::vector<std::uint64_t> detection_stamp_;
  std::uint64_t node_epoch_ = 0;
};

}  // namespace cdpf::core
