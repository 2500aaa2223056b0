#include "core/sdpf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "support/check.hpp"
#include "support/log.hpp"
#include "support/statistics.hpp"
#include "support/trace.hpp"

namespace cdpf::core {

namespace {

/// Weight of the particles seeded at cold start, when there is no
/// population to take a mean weight from.
constexpr double kInitialWeight = 1.0;

/// Call fn(host, group) for every host's contiguous particle range, in
/// ascending host order; `hosts` must be grouped as Sdpf::hosts() is.
template <typename Fn>
void for_each_host(const std::vector<wsn::NodeId>& hosts,
                   std::vector<filters::Particle>& particles, Fn&& fn) {
  for (std::size_t begin = 0; begin < hosts.size();) {
    std::size_t end = begin + 1;
    while (end < hosts.size() && hosts[end] == hosts[begin]) {
      ++end;
    }
    fn(hosts[begin], std::span(particles).subspan(begin, end - begin));
    begin = end;
  }
}

}  // namespace

Sdpf::Sdpf(wsn::Network& network, wsn::Radio& radio, SdpfConfig config)
    : network_(network),
      radio_(radio),
      config_(config),
      motion_(tracking::make_motion_model(config.dt)),
      bearing_(config.sigma_bearing),
      shared_(config.sigma_bearing, quantization_length(network),
              network.config().comm_radius) {
  CDPF_CHECK_MSG(config_.particles_per_detection > 0,
                 "SDPF needs at least one particle per detection");
  CDPF_CHECK_MSG(std::isfinite(config_.prune_threshold) && config_.prune_threshold >= 0.0,
                 "prune threshold must be finite and non-negative");
}

void Sdpf::seed_detecting_nodes(rng::Rng& rng) {
  // Every node currently detecting the target maintains
  // `particles_per_detection` particles (the paper's "eight particles on
  // each node that detects the target"). Fresh particles take the current
  // mean weight so they join the population without swamping it.
  const std::size_t grouped = particles_.size();
  const double fresh_weight =
      grouped > 0 ? filters::total_weight(particles_) / static_cast<double>(grouped)
                  : kInitialWeight;
  for (const wsn::NodeId id : detecting_) {
    const auto [first, last] =
        std::equal_range(hosts_.begin(),
                         hosts_.begin() + static_cast<std::ptrdiff_t>(grouped), id);
    const auto have = static_cast<std::size_t>(last - first);
    if (have >= config_.particles_per_detection) {
      continue;
    }
    // "Motes as particles": the particle position IS the host node's
    // position; only velocity hypotheses differ across a node's particles.
    const geom::Vec2 node_pos = network_.position(id);
    for (std::size_t i = have; i < config_.particles_per_detection; ++i) {
      filters::Particle p;
      p.state.position = node_pos;
      p.state.velocity = {rng.gaussian(kInitialVelocityMean.x, kInitialVelocitySigma),
                          rng.gaussian(kInitialVelocityMean.y, kInitialVelocitySigma)};
      p.weight = fresh_weight;
      particles_.push_back(p);
      hosts_.push_back(id);
    }
  }
  if (particles_.size() > grouped) {
    regroup_by_host();
  }
}

void Sdpf::regroup_by_host() {
  // (host, index) is a total order, so std::sort is deterministic and keeps
  // each host's arrival order without std::stable_sort's heap buffer.
  order_.resize(particles_.size());
  std::iota(order_.begin(), order_.end(), 0u);
  std::sort(order_.begin(), order_.end(), [this](std::uint32_t a, std::uint32_t b) {
    return hosts_[a] != hosts_[b] ? hosts_[a] < hosts_[b] : a < b;
  });
  next_particles_.clear();
  next_hosts_.clear();
  for (const std::uint32_t i : order_) {
    next_particles_.push_back(particles_[i]);
    next_hosts_.push_back(hosts_[i]);
  }
  particles_.swap(next_particles_);
  hosts_.swap(next_hosts_);
}

void Sdpf::iterate(const tracking::TargetState& truth, double time, rng::Rng& rng) {
  CDPF_CHECK_MSG(std::isfinite(time), "iteration time must be finite");
  network_.detecting_nodes(truth.position, detecting_);
  if (!particles_.empty()) {
    // -- 1. Propagation: each host broadcasts its particles (one message
    //    per particle: D_p + D_w) and every particle re-hosts on the
    //    receiver nearest its propagated state. -----------------------
    CDPF_TRACE_SPAN("sdpf-propagate");
    next_particles_.clear();
    next_hosts_.clear();
    const std::size_t payload = radio_.payloads().particle + radio_.payloads().weight;
    for_each_host(hosts_, particles_, [&](wsn::NodeId host,
                                          std::span<filters::Particle> group) {
      if (!network_.is_active(host)) {
        return;  // dead/sleeping host: its particles are lost
      }
      radio_.broadcast_count(host, wsn::MessageKind::kParticle, payload * group.size());
      const geom::Vec2 host_pos = network_.position(host);
      for (const filters::Particle& particle : group) {
        filters::Particle moved{motion_.sample(particle.state, rng), particle.weight};
        // Re-host on the receiver nearest the particle's propagated state;
        // the host keeps it unless a receiver is strictly nearer. The
        // particle position snaps to its new host ("motes as particles"),
        // and its heading follows the actual hop displacement so position
        // and velocity stay consistent (see propagate_particles_into).
        const wsn::NodeId nearest = network_.nearest_comm_neighbour<geom::distance_squared>(
            host, moved.state.position,
            geom::distance_squared(host_pos, moved.state.position));
        const wsn::NodeId best = nearest == wsn::kInvalidNodeId ? host : nearest;
        const geom::Vec2 new_pos = network_.position(best);
        const geom::Vec2 displacement = new_pos - host_pos;
        if (displacement.norm_squared() > 1e-12) {
          moved.state.velocity =
              displacement.normalized() * moved.state.velocity.norm();
        }
        moved.state.position = new_pos;
        next_particles_.push_back(moved);
        next_hosts_.push_back(best);
      }
    });
    particles_.swap(next_particles_);
    hosts_.swap(next_hosts_);
    regroup_by_host();
    // Drop hosts whose (normalized) mass became negligible at the previous
    // weight update — the pruning happens AFTER they were propagated once,
    // so the paper's per-iteration propagation cost structure (every
    // detecting node's particles are broadcast) is preserved. Survivors are
    // compacted in place; the writes never pass the group being read.
    std::size_t kept = 0;
    for_each_host(hosts_, particles_, [&](wsn::NodeId host,
                                          std::span<filters::Particle> group) {
      if (filters::total_weight(group) < config_.prune_threshold) {
        return;
      }
      for (const filters::Particle& p : group) {
        particles_[kept] = p;
        hosts_[kept] = host;
        ++kept;
      }
    });
    particles_.resize(kept);
    hosts_.resize(kept);
  }

  // Detecting nodes without a full list seed fresh particles (every
  // detecting node, when the set is empty).
  {
    CDPF_TRACE_SPAN("sdpf-seed");
    seed_detecting_nodes(rng);
  }
  if (particles_.empty()) {
    return;
  }

  // -- 2. Measurement sharing: detecting nodes broadcast bearings. Only the
  //    receiver count is charged; who hears what is decided geometrically
  //    in step 3. -------------------------------------------------------
  {
    CDPF_TRACE_SPAN("sdpf-share");
    shared_.clear();
    for (const wsn::NodeId id : detecting_) {
      const double z = bearing_.measure(network_.true_position(id), truth.position, rng);
      radio_.broadcast_count(id, wsn::MessageKind::kMeasurement,
                             radio_.payloads().measurement);
      shared_.add(network_.position(id), z);
    }
  }

  // -- 3. Weight update: each host weights its particles by the likelihood
  //    of the measurements it hears, relative to the sender centroid (see
  //    BearingEvidence::host_factors; the same computation as CDPF's
  //    likelihood step). Every particle sits exactly on its host ("motes as
  //    particles"), so one factor serves the host's whole group; the hosts
  //    are scored in one batch, in their sorted order. -------------------
  if (!shared_.empty()) {
    CDPF_TRACE_SPAN("sdpf-weight");
    host_positions_.clear();
    for_each_host(hosts_, particles_, [&](wsn::NodeId host, std::span<filters::Particle>) {
      host_positions_.add(network_.position(host));
    });
    shared_.host_factors(host_positions_.x, host_positions_.y, host_positions_.scores);
    std::size_t group_index = 0;
    for_each_host(hosts_, particles_, [&]([[maybe_unused]] wsn::NodeId host,
                                          std::span<filters::Particle> group) {
      const double factor = host_positions_.scores[group_index++];
      for (filters::Particle& p : group) {
        CDPF_ASSERT(p.state.position == network_.position(host));
        p.weight *= factor;
      }
    });
  }

  // -- 4. Weight aggregation via the global transceiver. ------------------
  // Three-way handshake: the transceiver queries, every hosting node
  // answers with its local weights (one message of N_i * D_w bytes), and
  // the transceiver broadcasts the total ("+2" in the paper's accounting).
  support::NeumaierSum total_sum;
  {
    CDPF_TRACE_SPAN("sdpf-aggregate");
    radio_.transceiver_broadcast(wsn::MessageKind::kControl, radio_.payloads().control);
    for_each_host(hosts_, particles_, [&](wsn::NodeId host,
                                          std::span<filters::Particle> group) {
      total_sum.add(filters::total_weight(group));
      radio_.send_to_transceiver(host, wsn::MessageKind::kWeight,
                                 radio_.payloads().weight * group.size());
    });
    radio_.transceiver_broadcast(wsn::MessageKind::kAggregate, radio_.payloads().weight);
  }

  const double total = total_sum.value();
  if (total <= 0.0) {
    CDPF_LOG_DEBUG("SDPF: total weight vanished at t=" << time << ", reseeding");
    particles_.clear();
    hosts_.clear();
    return;
  }

  // -- 5. Correction: normalize, estimate, local resampling. --------------
  CDPF_TRACE_SPAN("sdpf-resample");
  // A division per weight: filters::normalize_weights multiplies by the
  // reciprocal, which rounds differently.
  for (filters::Particle& p : particles_) {
    p.weight /= total;
  }
  pending_estimates_.push_back({filters::weighted_mean_state(particles_), time});

  // Local resampling: each host resamples its own group back to its size,
  // preserving the local mass (a standard local approximation when the
  // global total, but not the particle states, is shared).
  for_each_host(hosts_, particles_, [&](wsn::NodeId,
                                        std::span<filters::Particle> group) {
    if (filters::total_weight(group) <= 0.0 || group.size() <= 1) {
      return;
    }
    filters::resample_particles(group, config_.resampling, rng, resample_scratch_);
  });
}

}  // namespace cdpf::core
