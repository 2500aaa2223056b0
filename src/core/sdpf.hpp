// SDPF — the semi-distributed particle filter of Coates & Ing ("Sensor
// network particle filters: motes as particles", SSP 2005), the paper's
// state-of-the-art comparison point.
//
// Particles are maintained in disjoint subsets on sensor nodes (the paper's
// evaluation seeds EIGHT particles per detecting node and, unlike CDPF,
// never combines them), but weight aggregation still relies on a GLOBAL
// TRANSCEIVER assumed one hop away from every node. Per iteration:
//
//   1. Propagation      — each hosting node broadcasts its particles with
//                         weights toward the predicted direction; each
//                         particle is re-hosted on the receiver nearest its
//                         new state.                cost: N_s (D_p + D_w)
//   2. Measurement share— detecting nodes broadcast their bearings.
//                                                   cost: <= N_s * D_m
//   3. Weight update    — hosts weight their particles by the likelihood.
//   4. Aggregation      — hosts send their weights to the transceiver; the
//                         transceiver answers with a query + the total
//                         (the paper's three-way handshake: "+2" broadcast
//                         messages).                cost: N_s D_w + 2
//   5. Correction       — normalize, locally resample, estimate.
//
// Total: N_s (D_p + D_m + 2 D_w) — the Table I row for SDPF.
#pragma once

#include <cstdint>
#include <vector>

#include "core/batch_kernels.hpp"
#include "core/tracker.hpp"
#include "filters/resampling.hpp"
#include "tracking/measurement.hpp"
#include "tracking/motion_model.hpp"
#include "wsn/network.hpp"
#include "wsn/radio.hpp"

namespace cdpf::core {

/// What a caller varies of SDPF. The importance density is
/// make_motion_model(dt); the likelihood is inflated by the deployment's
/// quantization_length() like CDPF's.
struct SdpfConfig {
  double dt = 5.0;  // same iteration period as CDPF
  double sigma_bearing = 0.05;

  /// Particles seeded on each newly detecting node (paper: eight).
  std::size_t particles_per_detection = 8;

  filters::ResamplingScheme resampling = filters::ResamplingScheme::kSystematic;

  /// Hosts whose local mass falls below this normalized threshold drop out.
  double prune_threshold = 1e-6;
};

class Sdpf final : public TrackerAlgorithm {
 public:
  Sdpf(wsn::Network& network, wsn::Radio& radio, SdpfConfig config);

  std::string_view name() const override { return "SDPF"; }
  double time_step() const override { return config_.dt; }
  void iterate(const tracking::TargetState& truth, double time, rng::Rng& rng) override;
  const wsn::CommStats& comm_stats() const override { return radio_.stats(); }

  /// The particle set (N_s particles), grouped by host in ascending host
  /// order; each host keeps its particles in arrival order.
  const std::vector<filters::Particle>& particles() const { return particles_; }
  /// hosts()[i] is the node hosting particles()[i] (non-decreasing).
  const std::vector<wsn::NodeId>& hosts() const { return hosts_; }

 private:
  /// Give every detecting node without a full list fresh particles, then
  /// regroup.
  void seed_detecting_nodes(rng::Rng& rng);
  /// Sort the particles by (host, current index): groups them by ascending
  /// host and keeps each host's particles in arrival order.
  void regroup_by_host();

  wsn::Network& network_;
  wsn::Radio& radio_;
  SdpfConfig config_;
  tracking::RandomTurnMotionModel motion_;
  tracking::BearingMeasurementModel bearing_;

  // The particle set as two parallel arrays (see particles() and hosts()).
  std::vector<filters::Particle> particles_;
  std::vector<wsn::NodeId> hosts_;

  // Iteration-local workspaces, members so they stay warm across rounds.
  std::vector<wsn::NodeId> detecting_;  // this iteration's detecting nodes
  BearingEvidence shared_;              // bearings broadcast this iteration
  PointBatch host_positions_;           // one per host group, and its factor
  std::vector<filters::Particle> next_particles_;  // propagation / regroup
  std::vector<wsn::NodeId> next_hosts_;
  std::vector<std::uint32_t> order_;  // regroup permutation
  filters::ResampleScratch resample_scratch_;
};

}  // namespace cdpf::core
