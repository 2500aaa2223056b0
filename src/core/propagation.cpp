#include "core/propagation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/propagation_kernels.hpp"
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

void PropagationScratch::reserve(std::size_t copies, std::size_t kept) {
  if (copies <= capacity_) {
    return;
  }
  CDPF_CHECK_MSG(kept <= capacity_, "cannot keep more copies than the scratch holds");
  auto recorders = std::make_unique_for_overwrite<wsn::NodeId[]>(copies);
  auto columns = std::make_unique_for_overwrite<double[]>(5 * copies);
  std::copy_n(recorders_.get(), kept, recorders.get());
  for (std::size_t c = 0; c < 5; ++c) {
    std::copy_n(columns_.get() + c * capacity_, kept, columns.get() + c * copies);
  }
  recorders_ = std::move(recorders);
  columns_ = std::move(columns);
  capacity_ = copies;
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

  // A recorder is an active radio neighbour of the host (true positions)
  // that lies in the predicted area (believed positions): see
  // record_probabilities(). The scan reads the cells of the host's radio
  // disk that can hold one — those within r_s plus their own nodes' largest
  // believed-vs-true displacement of the predicted position — in the grid's
  // cell-major order, so which cells are read never changes the recorders,
  // their order or the RNG draws. With believed == true positions that is
  // the predicted area's cells: O(r_s^2) nodes per host instead of
  // O(r_c^2), ~100 against ~1000 at paper densities.
  const double comm_radius = network.config().comm_radius;
  const double comm_radius_sq = comm_radius * comm_radius;
  const double record_gate_sq = record_radius * record_radius * (1.0 + 1e-12);

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
    const geom::Vec2 host_true = network.true_position(host);
    const geom::Vec2 predicted = host_position + particle.velocity * motion.dt();

    radio.broadcast(host, wsn::MessageKind::kParticle, propagation_payload);
    ++outcome.num_broadcasts;

    // Overhearing: every receiver (plus the broadcaster, trivially) learns
    // this particle's weight and state; overheard_by() replays what one
    // node heard.
    outcome.global.add(particle.weight, host_position, particle.velocity);

    // Per cell, the gate writes every node's probability after the
    // recorders so far, and the compaction moves the recorders down over
    // the rest: it writes every entry and advances only past a recorder, an
    // active node other than the host with a positive probability, so it
    // has no branch either. A broadcaster never receives its own
    // transmission.
    std::size_t count = 0;
    network.visit_cells_believed_near(
        host_true, comm_radius, predicted, record_radius,
        [&](const wsn::Network::SlotBlock& block) {
          if (count + block.size > scratch.capacity()) {
            scratch.reserve(std::max(count + block.size, 2 * scratch.capacity()), count);
          }
          double* const probabilities = scratch.weights();
          double* const hop_x = scratch.hop_x();
          double* const hop_y = scratch.hop_y();
          record_probabilities(block, host_true, comm_radius_sq, predicted, record_gate_sq,
                               lin_prob, probabilities + count);
          for (std::size_t j = 0, read = count; j < block.size; ++j, ++read) {
            const double p = probabilities[read];
            const bool records = (p > 0.0) & (block.active[j] != 0) & (block.ids[j] != host);
            scratch.recorders()[count] = static_cast<wsn::NodeId>(block.ids[j]);
            probabilities[count] = p;
            hop_x[count] = block.believed_x[j] - host_position.x;
            hop_y[count] = block.believed_y[j] - host_position.y;
            count += static_cast<std::size_t>(records);
          }
        });
    // The probability sum, in recorder order.
    double probability_sum = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      probability_sum += scratch.weights()[i];
    }

    if (count == 0) {
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
      scratch.reserve(1);
      const geom::Vec2 hop = network.position(nearest) - host_position;
      scratch.recorders()[0] = nearest;
      scratch.weights()[0] = 1.0;
      scratch.hop_x()[0] = hop.x;
      scratch.hop_y()[0] = hop.y;
      probability_sum = 1.0;
      count = 1;
    }

    // Division rule (paper §III-B): total weight preserved; weight ratios
    // equal the linear-model probability ratios. Each recorded copy draws
    // its own process-noise realization (prior as importance density) as a
    // polar walk from the host particle's heading and speed, all of the
    // host's copies in one batch. The recorder's position is the copy's new
    // position, so no position is integrated. The recorded heading is the
    // hop's actual displacement (recorder minus broadcaster position), at
    // the sampled speed: with particles snapped to node positions this
    // keeps position and velocity consistent within a particle, so the
    // weight update exerts selection pressure on velocity, not just
    // position. A recorder on the host has no hop direction and keeps the
    // sampled heading.
    double* const weights = scratch.weights();
    double* const velocity_x = scratch.velocity_x();
    double* const velocity_y = scratch.velocity_y();
    motion.sample_polar(particle.velocity.angle(), particle.velocity.norm(), rng,
                        {velocity_y, count}, {velocity_x, count});
    if (divide_copies(count, particle.weight, probability_sum, weights, scratch.hop_x(),
                      scratch.hop_y(), velocity_x, velocity_y)) {
      for (std::size_t i = 0; i < count; ++i) {
        const double hx = scratch.hop_x()[i];
        const double hy = scratch.hop_y()[i];
        if (!(hx * hx + hy * hy > 1e-12)) {
          const geom::Vec2 v = geom::Vec2::from_angle(velocity_y[i]) * velocity_x[i];
          velocity_x[i] = v.x;
          velocity_y[i] = v.y;
        }
      }
    }
#ifndef NDEBUG
    support::NeumaierSum divided;
#endif
    for (std::size_t i = 0; i < count; ++i) {
#ifndef NDEBUG
      divided.add(weights[i]);
#endif
      outcome.next.add(scratch.recorders()[i], {velocity_x[i], velocity_y[i]}, weights[i]);
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
