#include "core/sdpf.hpp"

#include <cmath>

#include "support/check.hpp"
#include "support/log.hpp"
#include "support/statistics.hpp"

namespace cdpf::core {

Sdpf::Sdpf(wsn::Network& network, wsn::Radio& radio, SdpfConfig config)
    : network_(network),
      radio_(radio),
      config_(config),
      motion_(tracking::make_motion_model(config.motion, config.dt)),
      bearing_(config.sigma_bearing),
      shared_(config.sigma_bearing,
              quantization_length(config.position_quantization_m, network),
              network.config().comm_radius) {
  CDPF_CHECK_MSG(config_.particles_per_detection > 0,
                 "SDPF needs at least one particle per detection");
  CDPF_CHECK_MSG(config_.initial_weight > 0.0, "initial weight must be positive");
}

void Sdpf::seed_detecting_nodes(const tracking::TargetState& truth, rng::Rng& rng) {
  // Every node currently detecting the target maintains
  // `particles_per_detection` particles (the paper's "eight particles on
  // each node that detects the target"). Fresh particles take the current
  // mean weight so they join the population without swamping it.
  const std::size_t count = store_.particle_count();
  const double fresh_weight =
      count > 0 ? store_.total_weight() / static_cast<double>(count)
                : config_.initial_weight;
  for (const wsn::NodeId id : network_.detecting_nodes(truth.position)) {
    const std::vector<filters::Particle>* existing = store_.find(id);
    const std::size_t have = existing ? existing->size() : 0;
    if (have >= config_.particles_per_detection) {
      continue;
    }
    // "Motes as particles": the particle position IS the host node's
    // position; only velocity hypotheses differ across a node's particles.
    const geom::Vec2 node_pos = network_.position(id);
    for (std::size_t i = have; i < config_.particles_per_detection; ++i) {
      filters::Particle p;
      p.state.position = node_pos;
      p.state.velocity = {
          rng.gaussian(config_.initial_velocity_mean.x, config_.initial_velocity_sigma),
          rng.gaussian(config_.initial_velocity_mean.y, config_.initial_velocity_sigma)};
      p.weight = fresh_weight;
      store_.add(id, p);
    }
  }
}

void Sdpf::iterate(const tracking::TargetState& truth, double time, rng::Rng& rng) {
  CDPF_CHECK_MSG(std::isfinite(time), "iteration time must be finite");
  if (store_.empty()) {
    seed_detecting_nodes(truth, rng);
    if (store_.empty()) {
      return;
    }
  } else {
    // -- 1. Propagation: each host broadcasts its particles (one message
    //    per particle: D_p + D_w) and every particle re-hosts on the
    //    receiver nearest its propagated state. -----------------------
    MultiParticleStore next;
    const std::size_t payload = radio_.payloads().particle + radio_.payloads().weight;
    for (const wsn::NodeId host : store_.sorted_hosts()) {
      if (!network_.is_active(host)) {
        continue;  // dead/sleeping host: its particles are lost
      }
      const std::vector<filters::Particle>& list = *store_.find(host);
      radio_.broadcast(host, wsn::MessageKind::kParticle,
                       payload * list.size(), receivers_);
      const geom::Vec2 host_pos = network_.position(host);
      receiver_positions_.clear();
      for (const wsn::NodeId r : receivers_) {
        receiver_positions_.push_back(network_.position(r));
      }
      for (const filters::Particle& particle : list) {
        filters::Particle moved{motion_->sample(particle.state, rng), particle.weight};
        // Re-host on the receiver nearest the particle's propagated state;
        // the host keeps it if it is still the nearest candidate. The
        // particle position snaps to its new host ("motes as particles"),
        // and its heading follows the actual hop displacement so position
        // and velocity stay consistent (see PropagationConfig).
        wsn::NodeId best = host;
        geom::Vec2 new_pos = host_pos;
        double best_d = geom::distance_squared(host_pos, moved.state.position);
        for (std::size_t k = 0; k < receivers_.size(); ++k) {
          const double d =
              geom::distance_squared(receiver_positions_[k], moved.state.position);
          if (d < best_d) {
            best_d = d;
            best = receivers_[k];
            new_pos = receiver_positions_[k];
          }
        }
        const geom::Vec2 displacement = new_pos - host_pos;
        if (displacement.norm_squared() > 1e-12) {
          moved.state.velocity =
              displacement.normalized() * moved.state.velocity.norm();
        }
        moved.state.position = new_pos;
        next.add(best, moved);
      }
    }
    store_ = std::move(next);
    // Drop hosts whose (normalized) mass became negligible at the previous
    // weight update — the pruning happens AFTER they were propagated once,
    // so the paper's per-iteration propagation cost structure (every
    // detecting node's particles are broadcast) is preserved.
    store_.prune_hosts_below(config_.prune_threshold);
    if (store_.empty()) {
      seed_detecting_nodes(truth, rng);
      if (store_.empty()) {
        return;
      }
    }
  }

  // Newly detecting nodes without particles seed fresh ones.
  seed_detecting_nodes(truth, rng);

  // -- 2. Measurement sharing: detecting nodes broadcast bearings. Only the
  //    receiver count is charged; who hears what is decided geometrically
  //    in step 3. -------------------------------------------------------
  shared_.clear();
  for (const wsn::NodeId id : network_.detecting_nodes(truth.position)) {
    const double z = bearing_.measure(network_.true_position(id), truth.position, rng);
    radio_.broadcast_count(id, wsn::MessageKind::kMeasurement,
                           radio_.payloads().measurement);
    shared_.add(network_.position(id), z);
  }

  // -- 3. Weight update: each host weights its particles by the likelihood
  //    of the measurements it hears, relative to the sender centroid (see
  //    BearingEvidence::host_factor; the same computation as CDPF's
  //    likelihood step). Every particle sits exactly on its host ("motes as
  //    particles"), so one factor serves the host's whole list. ----------
  if (!shared_.empty()) {
    for (const wsn::NodeId host : store_.sorted_hosts()) {
      const geom::Vec2 host_pos = network_.position(host);
      const double factor = shared_.host_factor(host_pos);
      for (filters::Particle& p : *store_.find_mutable(host)) {
        CDPF_ASSERT(p.state.position == host_pos);
        p.weight *= factor;
      }
    }
  }

  // -- 4. Weight aggregation via the global transceiver. ------------------
  // Three-way handshake: the transceiver queries, every hosting node
  // answers with its local weights (one message of N_i * D_w bytes), and
  // the transceiver broadcasts the total ("+2" in the paper's accounting).
  radio_.transceiver_broadcast(wsn::MessageKind::kControl, radio_.payloads().control);
  support::NeumaierSum total_sum;
  for (const wsn::NodeId host : store_.sorted_hosts()) {
    const std::vector<filters::Particle>& list = *store_.find(host);
    total_sum.add(filters::total_weight(list));
    radio_.send_to_transceiver(host, wsn::MessageKind::kWeight,
                               radio_.payloads().weight * list.size());
  }
  radio_.transceiver_broadcast(wsn::MessageKind::kAggregate, radio_.payloads().weight);

  const double total = total_sum.value();
  if (total <= 0.0) {
    CDPF_LOG_DEBUG("SDPF: total weight vanished at t=" << time << ", reseeding");
    store_.clear();
    return;
  }

  // -- 5. Correction: normalize, estimate, local resampling. --------------
  store_.normalize(total);
  pending_estimates_.push_back({store_.estimate(), time});

  // Local resampling: each host resamples its own list back to its size,
  // preserving the local mass (a standard local approximation when the
  // global total, but not the particle states, is shared).
  for (const wsn::NodeId host : store_.sorted_hosts()) {
    std::vector<filters::Particle>& list = *store_.find_mutable(host);
    if (filters::total_weight(list) <= 0.0 || list.size() <= 1) {
      continue;
    }
    filters::resample_particles(list, list.size(), config_.resampling, rng,
                                resample_scratch_);
  }
}

std::vector<TimedEstimate> Sdpf::take_estimates() {
  std::vector<TimedEstimate> out = std::move(pending_estimates_);
  pending_estimates_.clear();
  return out;
}

}  // namespace cdpf::core
