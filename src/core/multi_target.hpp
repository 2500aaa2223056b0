// Multi-target tracking on top of CDPF (extension).
//
// The paper tracks a single target; its related work (Sheng et al. [5])
// handles multiple targets with dynamically constructed sensor cliques.
// This module provides the equivalent on the completely distributed
// architecture: one CDPF particle population per track, a gating-based data
// association step that splits the field's detections among tracks, track
// birth from unassociated detection clusters, and track death after
// repeated misses. Scoring uses the OSPA metric (ospa.hpp).
//
// Association model: sensors are anonymous detectors — a detection carries
// no target identity, so a node detecting two nearby targets contributes to
// whichever track's gate claims it first (nearest gate wins). Measurements
// are bearings toward the nearest target, exactly what a real array would
// report.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/cdpf.hpp"
#include "core/tracker.hpp"
#include "wsn/network.hpp"
#include "wsn/radio.hpp"

namespace cdpf::core {

class MultiTargetTracker {
 public:
  /// Every track runs CDPF with the paper's defaults, except that a spawned
  /// track knows nothing about its target's direction (unlike the
  /// single-target scenario, where the entry gate is known): its velocity
  /// prior is direction-neutral and wide enough to cover the paper's 3 m/s
  /// targets in any heading.
  MultiTargetTracker(wsn::Network& network, wsn::Radio& radio);

  double time_step() const { return filter_config_.dt; }

  /// One filter iteration against the true target states (used only to
  /// synthesize detections/measurements; every detection is anonymous).
  void iterate(std::span<const tracking::TargetState> truths, double time,
               rng::Rng& rng);

  /// Estimates produced since the last call, tagged with their track id.
  struct TrackEstimate {
    int track_id;
    TimedEstimate estimate;
  };
  std::vector<TrackEstimate> take_estimates();

  /// Current position estimate of every live track (for OSPA at an instant).
  std::vector<geom::Vec2> current_positions() const;

  std::size_t live_tracks() const { return tracks_.size(); }
  int total_tracks_spawned() const { return next_track_id_; }
  const wsn::CommStats& comm_stats() const { return radio_.stats(); }

 private:
  struct Track {
    int id;
    std::unique_ptr<Cdpf> filter;
    std::optional<geom::Vec2> gate_center;        // predicted for NEXT step
    std::optional<geom::Vec2> current_position;   // predicted for THIS step
    std::size_t misses = 0;
  };

  void spawn_tracks(const std::vector<SensingSnapshot::Detection>& unassigned,
                    const std::vector<SensingSnapshot::Measurement>& measurements,
                    double time, rng::Rng& rng);

  wsn::Network& network_;
  wsn::Radio& radio_;
  CdpfConfig filter_config_;  // shared by every track
  tracking::BearingMeasurementModel bearing_;
  std::vector<Track> tracks_;
  int next_track_id_ = 0;
  std::vector<TrackEstimate> pending_;
};

}  // namespace cdpf::core
