// CPF — the centralized particle filter baseline, and (by configuration)
// the Coates-style DPF baseline with quantized measurements.
//
// Every detecting node forwards its bearing measurement hop by hop (greedy
// geographic routing) to the sink at the field center, which runs a generic
// SIR filter with N_s = 1000 particles at the ground-truth time step
// (1 s in the paper's evaluation — centralized filtering is not tied to the
// distributed filters' coarser 5 s iteration).
//
//   cost per iteration:  sum_i D_m * H_i   (Table I: O(N D_m H_max))
//
// With `quantization_levels` set, measurements are quantized before
// transmission and the per-hop payload shrinks to the quantized size P —
// the "compress the data, not the messages" family of DPFs the paper
// contrasts with (Table I: O(N P H_max)). The filter then evaluates the
// likelihood with the quantization noise folded into sigma.
#pragma once

#include <optional>
#include <vector>

#include "core/batch_kernels.hpp"
#include "core/tracker.hpp"
#include "filters/huffman.hpp"
#include "filters/sir_filter.hpp"
#include "tracking/measurement.hpp"
#include "wsn/network.hpp"
#include "wsn/radio.hpp"
#include "wsn/routing.hpp"

namespace cdpf::core {

/// What a caller varies of CPF / DPF. The importance density is
/// make_motion_model(dt); the cloud holds 1000 particles (the paper's N_s)
/// and its resolution kCloudResolutionM inflates the likelihood.
struct CpfConfig {
  double dt = 1.0;  // centralized filters iterate at the measurement rate
  double sigma_bearing = 0.05;

  filters::ResamplingScheme resampling = filters::ResamplingScheme::kSystematic;

  /// When set, run as the quantized-measurement DPF baseline: bearings are
  /// quantized to this many levels over (-pi, pi] and each hop carries the
  /// compressed payload instead of D_m.
  std::optional<std::size_t> quantization_levels;

  /// Adaptive entropy coding of the quantized measurements (Ing & Coates,
  /// the paper's reference [12]): sensors encode the quantized INNOVATION
  /// (measured bearing minus the bearing predicted from the sink's fed-back
  /// estimate) with a Huffman code matched to the innovation distribution.
  /// Innovations cluster near zero, so the average codeword is far shorter
  /// than the fixed log2(levels) bits of plain quantization. Requires
  /// quantization_levels. The paper's caveat applies: the backward estimate
  /// feedback adds one broadcast message per iteration.
  bool adaptive_encoding = false;
};

class CentralizedPf final : public TrackerAlgorithm {
 public:
  CentralizedPf(wsn::Network& network, wsn::Radio& radio, CpfConfig config);

  std::string_view name() const override;
  double time_step() const override { return config_.dt; }
  void iterate(const tracking::TargetState& truth, double time, rng::Rng& rng) override;
  const wsn::CommStats& comm_stats() const override { return radio_.stats(); }

  const filters::SirFilter& filter() const { return filter_; }

  /// Quantize a bearing to the configured number of levels (bin centers
  /// over (-pi, pi]); identity when quantization is off.
  double quantize(double bearing_rad) const;

  /// Adaptive-encoding statistics (0 until the first encoded measurement).
  double mean_bits_per_measurement() const;

 private:
  wsn::Network& network_;
  wsn::Radio& radio_;
  CpfConfig config_;
  tracking::BearingMeasurementModel bearing_;
  wsn::GreedyGeographicRouter router_;
  filters::SirFilter filter_;
  // Per-iteration buffers, members so steady-state iterations do not
  // allocate: detecting nodes and the measurements delivered to the sink
  // (scored with the quantization noise folded into sigma when the DPF
  // variant is active). The router keeps its own routing scratch.
  std::vector<wsn::NodeId> detecting_;
  BearingEvidence received_;
  PointBatch particle_positions_;  // the cloud's positions and their scores
  /// Huffman code over the quantized-innovation alphabet (adaptive mode).
  std::optional<filters::HuffmanCode> innovation_code_;
  std::size_t encoded_bits_ = 0;
  std::size_t encoded_measurements_ = 0;
};

}  // namespace cdpf::core
