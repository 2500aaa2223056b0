// GMM-DPF — the Gaussian-mixture-compression distributed particle filter of
// Sheng, Hu & Ramanathan (IPSN'05), the paper's reference [5] and a concrete
// instance of the "compress the data, not the messages" DPF family whose
// Table-I cost the paper analyzes as O(N P H).
//
// Per iteration (running at the measurement rate, like CPF):
//   1. The detecting nodes elect a CLUSTER HEAD (the detecting node nearest
//      their centroid — a local computation once positions are shared).
//   2. Member nodes unicast their bearing measurements to the head
//      (one hop: detecting nodes are within 2 r_s <= r_c of each other).
//   3. The head runs a SIR filter (filters::SirFilter): predict, weight
//      with the members' measurements, resample.
//   4. When the head changes between iterations, the outgoing head
//      compresses its posterior into a k-component Gaussian mixture and
//      routes the parameters to the incoming head (the lossy handoff that
//      gives the scheme its name); the incoming head reconstructs its cloud
//      by sampling the mixture.
//   5. The head reports the estimate to the sink hop by hop.
//
// Communication: N_d D_m (local) + |GMM| * hops (handoffs) + D_e * hops
// (reports) — between CDPF and CPF in practice, with accuracy near CPF's.
#pragma once

#include <optional>
#include <vector>

#include "core/batch_kernels.hpp"
#include "core/tracker.hpp"
#include "filters/gmm.hpp"
#include "filters/sir_filter.hpp"
#include "tracking/measurement.hpp"
#include "wsn/network.hpp"
#include "wsn/radio.hpp"
#include "wsn/routing.hpp"

namespace cdpf::core {

/// What a caller varies of GMM-DPF. The head's cloud (500 particles,
/// systematic resampling, likelihood inflated by kCloudResolutionM) is
/// compressed into a 3-component mixture refit by 10 EM iterations.
struct GmmDpfConfig {
  double dt = 1.0;
  double sigma_bearing = 0.05;
};

class GmmDpf final : public TrackerAlgorithm {
 public:
  GmmDpf(wsn::Network& network, wsn::Radio& radio, GmmDpfConfig config);

  std::string_view name() const override { return "GMM-DPF"; }
  double time_step() const override { return config_.dt; }
  void iterate(const tracking::TargetState& truth, double time, rng::Rng& rng) override;
  const wsn::CommStats& comm_stats() const override { return radio_.stats(); }

  /// Current cluster head (invalid before the first detection).
  wsn::NodeId head() const { return head_; }
  std::size_t handoffs() const { return handoffs_; }

 private:
  void reinitialize_cloud(geom::Vec2 center, rng::Rng& rng);

  wsn::Network& network_;
  wsn::Radio& radio_;
  GmmDpfConfig config_;
  tracking::BearingMeasurementModel bearing_;
  wsn::GreedyGeographicRouter router_;

  wsn::NodeId head_ = wsn::kInvalidNodeId;
  filters::SirFilter filter_;  // the particle cloud maintained at the head
  // Per-iteration buffers, members so an iteration without a head handoff
  // allocates nothing once they have grown to the largest detecting set.
  std::vector<wsn::NodeId> detecting_;
  BearingEvidence received_;       // measurements the head received this step
  PointBatch particle_positions_;  // the cloud's positions and their scores
  std::size_t handoffs_ = 0;
};

}  // namespace cdpf::core
