#include "core/multi_target.hpp"

#include <cmath>
#include <limits>
#include <map>

#include "support/check.hpp"
#include "support/log.hpp"

namespace cdpf::core {

namespace {

/// A detection within this distance (m) of a track's gate center (predicted
/// or last estimated position) is claimed by that track.
constexpr double kGatingRadius = 30.0;
/// Minimum unassociated detections (mutually within 2 r_s) to spawn a new
/// track. High enough that edge leakage from an existing track's imperfect
/// gate does not breed phantom tracks; a real target at the paper's
/// densities produces tens of detections.
constexpr std::size_t kSpawnMinDetections = 6;
/// Consecutive iterations a track may go without claiming any detection
/// before it is dropped.
constexpr std::size_t kMissLimit = 2;
/// Safety cap on simultaneous tracks.
constexpr std::size_t kMaxTracks = 16;

CdpfConfig track_filter_config() {
  CdpfConfig config;
  config.initial_velocity_mean = {0.0, 0.0};
  config.initial_velocity_sigma = 2.5;
  return config;
}

}  // namespace

MultiTargetTracker::MultiTargetTracker(wsn::Network& network, wsn::Radio& radio)
    : network_(network),
      radio_(radio),
      filter_config_(track_filter_config()),
      bearing_(filter_config_.sigma_bearing) {}

void MultiTargetTracker::iterate(std::span<const tracking::TargetState> truths,
                                 double time, rng::Rng& rng) {
  CDPF_CHECK_MSG(std::isfinite(time), "iteration time must be finite");
  // --- Physical sensing: each active node detects the NEAREST target
  // within its sensing radius and measures a bearing toward it. -----------
  std::vector<SensingSnapshot::Detection> detections;
  std::vector<SensingSnapshot::Measurement> measurements;
  {
    struct Nearest {
      double d2;          // squared distance to the nearest target
      geom::Vec2 toward;  // that target's position
    };
    // Ordered by node id, so the bearing-noise draws below happen in
    // ascending node order and the outputs come out sorted.
    std::map<wsn::NodeId, Nearest> nearest;
    std::vector<wsn::NodeId> scratch;
    for (const tracking::TargetState& truth : truths) {
      network_.detecting_nodes(truth.position, scratch);
      for (const wsn::NodeId id : scratch) {
        const double d2 =
            geom::distance_squared(network_.true_position(id), truth.position);
        const auto [it, inserted] = nearest.try_emplace(id, Nearest{d2, truth.position});
        if (!inserted && d2 < it->second.d2) {
          it->second = {d2, truth.position};
        }
      }
    }
    for (const auto& [id, n] : nearest) {
      detections.push_back({id, std::numeric_limits<double>::quiet_NaN()});
      measurements.push_back(
          {id, bearing_.measure(network_.true_position(id), n.toward, rng)});
    }
  }

  // --- Data association: nearest gate within the gating radius wins. -----
  std::vector<SensingSnapshot> per_track(tracks_.size());
  std::vector<SensingSnapshot::Detection> unassigned;
  std::vector<SensingSnapshot::Measurement> unassigned_measurements;
  for (std::size_t d = 0; d < detections.size(); ++d) {
    const geom::Vec2 pos = network_.position(detections[d].node);
    std::size_t best_track = tracks_.size();
    double best = kGatingRadius;
    for (std::size_t k = 0; k < tracks_.size(); ++k) {
      if (!tracks_[k].gate_center) {
        continue;
      }
      const double dist = geom::distance(pos, *tracks_[k].gate_center);
      if (dist < best) {
        best = dist;
        best_track = k;
      }
    }
    if (best_track < tracks_.size()) {
      per_track[best_track].detections.push_back(detections[d]);
      per_track[best_track].measurements.push_back(measurements[d]);
    } else {
      unassigned.push_back(detections[d]);
      unassigned_measurements.push_back(measurements[d]);
    }
  }

  // --- Run every live track on its snapshot. ------------------------------
  for (std::size_t k = 0; k < tracks_.size(); ++k) {
    Track& track = tracks_[k];
    track.filter->iterate_snapshot(per_track[k], time, rng);
    for (TimedEstimate& e : track.filter->take_estimates()) {
      // The estimate refers to the PREVIOUS iteration (CDPF's lag): one
      // step of lead gives the position now, two steps the gate for the
      // next association round.
      track.current_position = e.state.position + e.state.velocity * time_step();
      track.gate_center = e.state.position + e.state.velocity * (2.0 * time_step());
      pending_.push_back({track.id, std::move(e)});
    }
    if (per_track[k].detections.empty() || track.filter->particles().empty()) {
      ++track.misses;  // nothing claimed: the target left this gate
    } else {
      track.misses = 0;
    }
  }

  // --- Track death. -------------------------------------------------------
  std::erase_if(tracks_, [this](const Track& t) {
    if (t.misses > kMissLimit || t.filter->particles().empty()) {
      CDPF_LOG_DEBUG("multi-target: dropping track " << t.id);
      return true;
    }
    return false;
  });

  // --- Track merging: two gates closer than the sensing radius are
  // duplicates of the same target; the one with fewer particles is dropped.
  const double merge_radius = network_.config().sensing_radius;
  for (std::size_t a = 0; a < tracks_.size(); ++a) {
    for (std::size_t b = a + 1; b < tracks_.size();) {
      if (tracks_[a].gate_center && tracks_[b].gate_center &&
          geom::distance(*tracks_[a].gate_center, *tracks_[b].gate_center) <
              merge_radius) {
        // Keep the better-established population.
        const std::size_t victim =
            tracks_[a].filter->particles().size() >=
                    tracks_[b].filter->particles().size()
                ? b
                : a;
        CDPF_LOG_DEBUG("multi-target: merging track " << tracks_[victim].id);
        tracks_.erase(tracks_.begin() + static_cast<std::ptrdiff_t>(victim));
        if (victim == a) {
          b = a + 1;  // the survivor moved into slot a; restart inner scan
        }
      } else {
        ++b;
      }
    }
  }

  // --- Track birth from unassociated detection clusters. ------------------
  spawn_tracks(unassigned, unassigned_measurements, time, rng);
}

void MultiTargetTracker::spawn_tracks(
    const std::vector<SensingSnapshot::Detection>& unassigned,
    const std::vector<SensingSnapshot::Measurement>& measurements, double time,
    rng::Rng& rng) {
  CDPF_ASSERT(std::isfinite(time));
  if (unassigned.size() < kSpawnMinDetections || tracks_.size() >= kMaxTracks) {
    return;
  }
  // Greedy clustering: grow a cluster around each unused detection with the
  // 2 r_s proximity rule; spawn one track per sufficiently large cluster.
  const double link = 2.0 * network_.config().sensing_radius;
  std::vector<bool> used(unassigned.size(), false);
  for (std::size_t seed = 0; seed < unassigned.size(); ++seed) {
    if (used[seed] || tracks_.size() >= kMaxTracks) {
      continue;
    }
    std::vector<std::size_t> cluster{seed};
    used[seed] = true;
    for (std::size_t grow = 0; grow < cluster.size(); ++grow) {
      const geom::Vec2 base = network_.position(unassigned[cluster[grow]].node);
      for (std::size_t j = 0; j < unassigned.size(); ++j) {
        if (!used[j] &&
            geom::distance(network_.position(unassigned[j].node), base) <= link) {
          used[j] = true;
          cluster.push_back(j);
        }
      }
    }
    if (cluster.size() < kSpawnMinDetections) {
      continue;
    }
    SensingSnapshot snapshot;
    geom::Vec2 centroid{};
    for (const std::size_t j : cluster) {
      snapshot.detections.push_back(unassigned[j]);
      snapshot.measurements.push_back(measurements[j]);
      centroid += network_.position(unassigned[j].node);
    }
    centroid = centroid / static_cast<double>(cluster.size());

    Track track;
    track.id = next_track_id_++;
    track.filter = std::make_unique<Cdpf>(network_, radio_, filter_config_);
    track.filter->iterate_snapshot(snapshot, time, rng);
    track.gate_center = centroid;
    CDPF_LOG_DEBUG("multi-target: spawned track " << track.id << " from "
                                                  << cluster.size() << " detections");
    tracks_.push_back(std::move(track));
  }
}

std::vector<MultiTargetTracker::TrackEstimate> MultiTargetTracker::take_estimates() {
  std::vector<TrackEstimate> out = std::move(pending_);
  pending_.clear();
  return out;
}

std::vector<geom::Vec2> MultiTargetTracker::current_positions() const {
  std::vector<geom::Vec2> out;
  for (const Track& t : tracks_) {
    if (t.current_position) {
      out.push_back(*t.current_position);
    }
  }
  return out;
}

}  // namespace cdpf::core
