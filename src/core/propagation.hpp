// Particle propagation along the target trajectory (paper §III-B) and the
// overhearing-based aggregation CDPF builds on (§IV).
//
// At each iteration every hosting node broadcasts its particle (state +
// weight in one message, D_p + D_w bytes) toward the predicted target
// position. Within the broadcast's reception disk:
//  * nodes inside the *predicted area* (disk of sensing radius around the
//    broadcaster's predicted target position) with positive linear-
//    probability record the particle — one particle may be DIVIDED among
//    several recorders, weights split proportionally to their probabilities
//    (rule 1: total preserved, rule 2: ratios follow the linear model);
//  * particles arriving at the same recorder from different broadcasters
//    are COMBINED by the ParticleStore;
//  * every receiver additionally OVERHEARS the broadcast, so after the round
//    each participating node knows the total weight (and the weighted
//    position sum) of the previous iteration's particle set — the aggregate
//    CDPF's correction step needs, obtained with zero extra messages.
#pragma once

#include <cstddef>
#include <vector>

#include "core/node_particle.hpp"
#include "geom/vec2.hpp"
#include "random/rng.hpp"
#include "support/statistics.hpp"
#include "tracking/detection.hpp"
#include "tracking/motion_model.hpp"
#include "wsn/network.hpp"
#include "wsn/radio.hpp"

namespace cdpf::core {

/// What one node learns by overhearing a propagation round.
struct OverheardAggregate {
  double total_weight = 0.0;       // sum of broadcast particle weights heard
  geom::Vec2 weighted_position;    // sum of w_i * position(host_i)
  geom::Vec2 weighted_velocity;    // sum of w_i * velocity_i
  double weighted_speed = 0.0;     // sum of w_i * |velocity_i|
  std::size_t particles_heard = 0;

  /// Fold one overheard broadcast into the aggregate. The weight total uses
  /// a compensated sum: the correction step divides by it and the
  /// conservation invariant compares it against the recorded total, so its
  /// error must not grow with the number of broadcasts heard.
  void add(double weight, geom::Vec2 position, geom::Vec2 velocity);

  /// Estimate of the previous-iteration target state from the overheard
  /// particles (the correction step's estimate). The velocity estimate is
  /// the mean DIRECTION rescaled to the mean SPEED: averaging velocity
  /// vectors with angular spread shrinks the magnitude by E[cos(theta)],
  /// which would make every prediction lag the target. Requires
  /// total_weight > 0.
  tracking::TargetState estimate() const;

 private:
  support::NeumaierSum weight_sum_;
};

struct PropagationOutcome {
  /// Particles recorded at their new hosts (divided + combined).
  ParticleStore next;
  /// Aggregate over all broadcasts (what a node that heard everything
  /// holds); the correction step's divisor and estimate. overheard_by()
  /// gives what one particular node heard.
  OverheardAggregate global;
  std::size_t num_broadcasts = 0;
  /// Particles that did not reach a new host: their host was inactive and
  /// could not broadcast, or no other active node lay within the
  /// communication radius to record (or, as the nearest receiver, take)
  /// the particle.
  std::size_t lost_particles = 0;
  /// Weight mass carried by the lost particles. Conservation invariant:
  /// next.total_weight() + lost_weight == input store total (the division
  /// rule preserves mass, so only lost particles may remove any).
  double lost_weight = 0.0;

  /// Make the outcome reusable for another round; all buffer capacity is
  /// retained.
  void reset();
};

/// Reusable buffers for propagate_particles_into(); hand the same instance
/// to every round so the receiver/recorder staging vectors stay warm.
struct PropagationScratch {
  std::vector<wsn::NodeId> receivers;
  std::vector<wsn::NodeId> recorders;
  std::vector<double> probabilities;
  // Accepted-recorder displacements from the host, shared by both recorder
  // routes and consumed by the division loop (recorded headings).
  std::vector<double> rec_dx;
  std::vector<double> rec_dy;
  std::vector<double> rec_d2;

  /// Pre-size every buffer for networks of up to `nodes` nodes so steady-
  /// state rounds never touch the allocator.
  void reserve(std::size_t nodes) {
    receivers.reserve(nodes);
    recorders.reserve(nodes);
    probabilities.reserve(nodes);
    rec_dx.reserve(nodes);
    rec_dy.reserve(nodes);
    rec_d2.reserve(nodes);
  }
};

/// Run one propagation round for `store` over `network`, charging the
/// broadcasts to `radio`. The predicted area is the disk of the network's
/// sensing radius r_s around each broadcaster's predicted target position;
/// every receiver strictly inside it records. `motion` supplies dt (the
/// filter iteration step) and the process noise applied to recorded
/// velocities; `rng` drives the noise. The input store is left untouched
/// (and must not alias `outcome.next`). The caller must have reset
/// `outcome` for this round; with warm `outcome`/`scratch` buffers the round
/// is allocation-free.
void propagate_particles_into(const ParticleStore& store, const wsn::Network& network,
                              wsn::Radio& radio,
                              const tracking::RandomTurnMotionModel& motion,
                              rng::Rng& rng, PropagationOutcome& outcome,
                              PropagationScratch& scratch);

/// What `node` holds after overhearing one propagation round whose
/// broadcasting particles are `broadcasters` (the round's input store): the
/// particle of every active host, folded in sorted-host order, that `node`
/// either hosts or receives by Radio::broadcast's rule — `node` is active
/// and its true position lies within the communication radius of the
/// host's true position (Network::in_comm_range). A diagnostic of the
/// overhearing-completeness claim (paper §IV: under r_s <= r_c/2 every
/// recorder's total equals PropagationOutcome::global); the filter itself
/// reads only `global`.
/// Evaluate it under the node activity the round ran with. After a Cdpf
/// iteration the round's broadcasters are Cdpf::last_propagation()->next.
OverheardAggregate overheard_by(wsn::NodeId node, const ParticleStore& broadcasters,
                                const wsn::Network& network);

}  // namespace cdpf::core
