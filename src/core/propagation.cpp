#include "core/propagation.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "support/check.hpp"
#include "support/trace.hpp"

namespace cdpf::core {

void OverheardAggregate::add(double weight, geom::Vec2 position, geom::Vec2 velocity) {
  CDPF_ASSERT(std::isfinite(weight) && weight >= 0.0);
  weight_sum_.add(weight);
  total_weight = weight_sum_.value();
  weighted_position += position * weight;
  weighted_velocity += velocity * weight;
  weighted_speed += velocity.norm() * weight;
  ++particles_heard;
}

tracking::TargetState OverheardAggregate::estimate() const {
  CDPF_CHECK_MSG(total_weight > 0.0, "overheard estimate needs positive total weight");
  const geom::Vec2 mean_velocity = weighted_velocity / total_weight;
  const double mean_speed = weighted_speed / total_weight;
  geom::Vec2 velocity = mean_velocity;
  if (mean_velocity.norm_squared() > 1e-12) {
    velocity = mean_velocity.normalized() * mean_speed;
  }
  return {weighted_position / total_weight, velocity};
}

void PropagationOutcome::reset() {
  next.clear();
  global = OverheardAggregate{};
  num_broadcasts = 0;
  lost_particles = 0;
  lost_weight = 0.0;
}

void propagate_particles_into(const ParticleStore& store, const wsn::Network& network,
                              wsn::Radio& radio,
                              const tracking::RandomTurnMotionModel& motion,
                              rng::Rng& rng, PropagationOutcome& outcome,
                              PropagationScratch& scratch) {
  CDPF_TRACE_SPAN("propagation-round");
  CDPF_CHECK_MSG(&store != &outcome.next, "input store must not alias outcome.next");
  // The predicted area's radius (paper: the sensing radius).
  const double record_radius = network.config().sensing_radius;
  const tracking::LinearProbabilityModel lin_prob(record_radius);
  const std::size_t propagation_payload =
      radio.payloads().particle + radio.payloads().weight;

  support::NeumaierSum lost_weight;
#ifndef NDEBUG
  // Mass lost WITHOUT a broadcast (dead/sleeping hosts) — the only part of
  // the input total the overheard global aggregate legitimately misses.
  support::NeumaierSum silent_lost_weight;
#endif
  std::vector<wsn::NodeId>& receivers = scratch.receivers;
  std::vector<wsn::NodeId>& recorders = scratch.recorders;
  std::vector<double>& probabilities = scratch.probabilities;
  std::vector<double>& rec_dx = scratch.rec_dx;
  std::vector<double>& rec_dy = scratch.rec_dy;
  std::vector<double>& rec_d2 = scratch.rec_d2;

  // Receivers only matter individually when believed positions diverge
  // from the physical ones (the record test runs on believed coordinates,
  // so record-disk membership cannot be resolved by the physical-position
  // grid). Otherwise the round runs receiver-free: the broadcast is charged
  // by count alone and recorders come from a direct scan of the record disk
  // — O(r_s^2) points touched per host instead of O(r_c^2), the difference
  // between ~100 and ~1000 nodes at paper densities. Both routes give the
  // same recorders, weights, draws and statistics when believed == true
  // positions.
  const bool use_receiver_list = network.has_believed_positions();
  const double comm_radius = network.config().comm_radius;
  const double comm_radius_sq = comm_radius * comm_radius;
  // The squared-distance pre-gate is deliberately loose (record_radius
  // inflated by a few ulp): it only ever skips nodes the exact linear-model
  // test would reject with certainty, so which nodes record — and with what
  // probability — is decided by the same arithmetic on both recorder routes.
  const double record_gate_sq = record_radius * record_radius * (1.0 + 1e-12);
  // Grid query radius for the direct record-disk scan: anything covering the
  // pre-gate works (acceptance is decided downstream); 1e-9 relative slack
  // comfortably dominates the gate's margin.
  const double record_query_radius = record_radius * (1.0 + 1e-9);

  // Deterministic host order so rng consumption is reproducible.
  for (const wsn::NodeId host : store.sorted_hosts()) {
    const NodeParticle& particle = *store.find(host);
    CDPF_ASSERT(std::isfinite(particle.weight));
    if (!network.is_active(host)) {
      // A host that died or fell asleep between iterations cannot
      // broadcast; its particle (and weight mass) is lost.
      ++outcome.lost_particles;
      lost_weight.add(particle.weight);
#ifndef NDEBUG
      silent_lost_weight.add(particle.weight);
#endif
      continue;
    }
    const geom::Vec2 host_position = network.position(host);
    const geom::Vec2 predicted = host_position + particle.velocity * motion.dt();

    if (use_receiver_list) {
      radio.broadcast(host, wsn::MessageKind::kParticle, propagation_payload,
                      receivers);
    } else {
      radio.broadcast_count(host, wsn::MessageKind::kParticle, propagation_payload);
    }
    ++outcome.num_broadcasts;

    // Overhearing: every receiver (plus the broadcaster, trivially) learns
    // this particle's weight and state; overheard_by() replays what one
    // node heard.
    outcome.global.add(particle.weight, host_position, particle.velocity);

    // Recorders: receivers inside the predicted area by the linear model.
    // Both routes below fill the same parallel arrays (recorder id, record
    // probability, displacement-from-host) that the shared division loop
    // consumes, with the same acceptance arithmetic — dx/dy/d2 differences,
    // squared gates, probability(sqrt(d2)).
    recorders.clear();
    probabilities.clear();
    rec_dx.clear();
    rec_dy.clear();
    rec_d2.clear();
    double probability_sum = 0.0;
    auto accept = [&](wsn::NodeId r, double p, double dxh, double dyh) {
      recorders.push_back(r);
      probabilities.push_back(p);
      probability_sum += p;
      rec_dx.push_back(dxh);
      rec_dy.push_back(dyh);
      rec_d2.push_back(dxh * dxh + dyh * dyh);
    };
    if (use_receiver_list) {
      for (const wsn::NodeId r : receivers) {
        const geom::Vec2 receiver_position = network.position(r);
        const double dxp = receiver_position.x - predicted.x;
        const double dyp = receiver_position.y - predicted.y;
        const double d2p = dxp * dxp + dyp * dyp;
        if (d2p > record_gate_sq) {
          continue;
        }
        const double p = lin_prob.probability(std::sqrt(d2p));
        if (p > 0.0) {
          accept(r, p, receiver_position.x - host_position.x,
                 receiver_position.y - host_position.y);
        }
      }
    } else {
      // Direct record-disk scan: the grid hands each active candidate's id
      // with its true coordinates (valid here because use_receiver_list is
      // false exactly when believed == true). Grid visitation order is
      // global (cell-major, then build order), so filtering the record-disk
      // query by comm-range membership yields the SAME recorder sequence —
      // hence the same rng consumption — as filtering the comm-disk
      // receiver list by the record gate; the comm test is the identical
      // arithmetic the grid uses for receiver membership. A broadcaster
      // never receives its own transmission.
      network.visit_active_within(
          predicted, record_query_radius, [&](wsn::NodeId r, double x, double y) {
            const double dxh = x - host_position.x;
            const double dyh = y - host_position.y;
            const double dxp = x - predicted.x;
            const double dyp = y - predicted.y;
            const double d2p = dxp * dxp + dyp * dyp;
            if (r == host || dxh * dxh + dyh * dyh > comm_radius_sq ||
                d2p > record_gate_sq) {
              return;
            }
            const double p = lin_prob.probability(std::sqrt(d2p));
            if (p > 0.0) {
              accept(r, p, dxh, dyh);
            }
          });
    }

    if (recorders.empty()) {
      // No receiver inside the predicted area: hand the whole particle to
      // the receiver nearest the predicted position instead of losing it
      // (keeps the filter alive in sparse deployments). The receivers are
      // the already-charged broadcast's: the host's radio neighbours.
      const wsn::NodeId nearest = network.nearest_comm_neighbour<geom::distance_squared>(
          host, predicted, std::numeric_limits<double>::infinity());
      if (nearest == wsn::kInvalidNodeId) {
        ++outcome.lost_particles;
        lost_weight.add(particle.weight);
        continue;
      }
      const geom::Vec2 hop = network.position(nearest) - host_position;
      accept(nearest, 1.0, hop.x, hop.y);
      probability_sum = 1.0;
    }

    // Division rule (paper §III-B): total weight preserved; weight ratios
    // equal the linear-model probability ratios. Each recorded copy draws
    // its own process-noise realization (prior as importance density) as a
    // polar walk from the host particle's heading and speed, taken once
    // here for all of its copies. The recorder's position is the copy's
    // new position, so no position is integrated, and the sampled heading
    // is used only when the recorder sits on the host.
    const double host_heading = particle.velocity.angle();
    const double host_speed = particle.velocity.norm();
#ifndef NDEBUG
    support::NeumaierSum divided;
#endif
    for (std::size_t i = 0; i < recorders.size(); ++i) {
      const double weight = particle.weight * probabilities[i] / probability_sum;
      const tracking::PolarVelocity sampled = motion.sample_polar(host_heading, host_speed, rng);
      // The recorded heading is the hop's actual displacement (recorder
      // minus broadcaster position), at the sampled speed. With particles
      // snapped to node positions this keeps position and velocity
      // consistent within a particle, so the weight update exerts selection
      // pressure on velocity, not just position. A recorder on the host
      // has no hop direction and keeps the sampled heading.
      geom::Vec2 velocity;
      if (rec_d2[i] > 1e-12) {
        const double scale = sampled.speed / std::sqrt(rec_d2[i]);
        velocity = {rec_dx[i] * scale, rec_dy[i] * scale};
      } else {
        velocity = geom::Vec2::from_angle(sampled.heading) * sampled.speed;
      }
#ifndef NDEBUG
      divided.add(weight);
#endif
      outcome.next.add(recorders[i], velocity, weight);
    }
    // Division rule 1: the recorded copies carry exactly the divided
    // particle's mass.
    CDPF_ASSERT(std::abs(divided.value() - particle.weight) <=
                1e-12 + 1e-9 * particle.weight);
  }
  outcome.lost_weight = lost_weight.value();
  // Combine/divide conservation (paper §III-B): recording re-hosts mass but
  // never creates or destroys it, so what was not lost must be in `next`;
  // and the overheard global total — the divisor the correction step
  // normalizes by — covers every broadcast particle, missing only the mass
  // of hosts that never transmitted.
  CDPF_ASSERT([&] {
    const double total_in = store.total_weight();
    const double scale = std::max(1.0, total_in);
    return std::abs(outcome.next.total_weight() + outcome.lost_weight - total_in) <=
               1e-9 * scale &&
           std::abs(outcome.global.total_weight + silent_lost_weight.value() -
                    total_in) <= 1e-9 * scale;
  }());
}

OverheardAggregate overheard_by(wsn::NodeId node, const ParticleStore& broadcasters,
                                const wsn::Network& network) {
  CDPF_CHECK_MSG(node < network.size(), "node id out of range");
  const bool node_active = network.is_active(node);
  OverheardAggregate heard;
  for (const wsn::NodeId host : broadcasters.sorted_hosts()) {
    if (!network.is_active(host)) {
      continue;  // did not broadcast
    }
    const geom::Vec2 host_position = network.position(host);
    if (host != node && !(node_active && network.in_comm_range(node, host))) {
      continue;
    }
    const NodeParticle& particle = *broadcasters.find(host);
    heard.add(particle.weight, host_position, particle.velocity);
  }
  return heard;
}

}  // namespace cdpf::core
