#include "core/cdpf.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "support/check.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace cdpf::core {

namespace {

/// Weight of a particle created at cold start, when there is no overheard
/// population to take a mean weight from.
constexpr double kInitialWeight = 1.0;

/// Relative weight threshold (fraction of the total) below which a host
/// drops its particle and stops broadcasting (the distributed "resampling":
/// eliminate negligible particles).
constexpr double kPruneThreshold = 1e-4;

/// CDPF-NE only: weight multiplier applied to a host whose own sensor
/// currently detects the target. The local detection outcome is free
/// information (it needs no broadcast), and folding it in as a coarse
/// binary likelihood keeps the otherwise purely geometric neighborhood
/// estimate anchored to reality. The paper-literal variant has no boost
/// (a multiplier of 1).
constexpr double kDetectionWeightBoost = 16.0;

}  // namespace

Cdpf::Cdpf(wsn::Network& network, wsn::Radio& radio, CdpfConfig config)
    : network_(network),
      radio_(radio),
      config_(config),
      motion_(tracking::make_motion_model(config.dt)),
      bearing_(config.sigma_bearing),
      evidence_(config.sigma_bearing, quantization_length(network),
                network.config().comm_radius) {
  // Pre-size every per-iteration buffer to its worst case (the node count
  // bounds hosts, receivers and area membership alike) so steady-state
  // iterations never touch the allocator. A few MB at the densest paper
  // deployment — cheap next to re-allocating on the hot path.
  const std::size_t nodes = network_.size();
  store_.reserve(nodes);
  propagation_.next.reserve(nodes);
  // A host's recorders are radio neighbours of it, or its one nearest
  // receiver.
  propagation_scratch_.reserve(network_.max_nodes_within(network_.config().comm_radius) + 1);
  last_recorders_.reserve(nodes);
  // One detection and one bearing per node within the sensing radius of
  // the target.
  const std::size_t detecting = network_.max_nodes_within(network_.config().sensing_radius);
  sensed_.detections.reserve(detecting);
  evidence_.reserve(detecting);
  pending_estimates_.reserve(64);
  if (config_.use_neighborhood_estimation) {
    area_nodes_.reserve(nodes);
    area_positions_.reserve(nodes);
    area_contributions_.reserve(nodes);
    node_contribution_.resize(nodes, 0.0);
    contribution_stamp_.resize(nodes, 0);
    detection_stamp_.resize(nodes, 0);
  }
  // The paper's correctness argument for the overheard total (every recorder
  // hears every broadcast of the previous round) needs r_s <= r_c / 2.
  // Experiments may explore violations deliberately, so warn, don't reject,
  // and warn once per process: a sweep builds one tracker per trial.
  if (!network_.config().overhearing_assumption_holds()) {
    static std::once_flag warned;
    std::call_once(warned, [this] {
      CDPF_LOG_WARN("CDPF: sensing radius "
                    << network_.config().sensing_radius
                    << " m violates r_s <= r_c/2 (comm radius "
                    << network_.config().comm_radius
                    << " m); the overheard total may be incomplete");
    });
  }
}

std::string_view Cdpf::name() const {
  return config_.use_neighborhood_estimation ? "CDPF-NE" : "CDPF";
}

geom::Vec2 Cdpf::sample_initial_velocity(rng::Rng& rng) {
  return {rng.gaussian(kInitialVelocityMean.x, kInitialVelocitySigma),
          rng.gaussian(kInitialVelocityMean.y, kInitialVelocitySigma)};
}

double Cdpf::new_particle_weight() const {
  // A node creating a particle mid-track assigns it the mean weight of the
  // particle set it overheard during the last propagation round — a value
  // it can compute locally. At cold start there is nothing to overhear and
  // a constant is used (paper §III-B: "configured as a constant, or
  // adaptively determined").
  const double total = store_.total_weight();
  if (!store_.empty() && total > 0.0) {
    return total / static_cast<double>(store_.size());
  }
  return kInitialWeight;
}

void Cdpf::initialize_from_detections(rng::Rng& rng) {
  for (const wsn::NodeId node : sensed_.detections) {
    store_.add(node, sample_initial_velocity(rng), kInitialWeight);
  }
  if (!sensed_.detections.empty()) {
    CDPF_LOG_DEBUG(name() << ": initialized " << sensed_.detections.size()
                          << " particles from first detection");
  }
}

void Cdpf::iterate(const tracking::TargetState& truth, double time, rng::Rng& rng) {
  CDPF_CHECK_MSG(std::isfinite(truth.position.x) && std::isfinite(truth.position.y),
                 "target position must be finite");
  // Sense what the field would report: the detecting nodes and their
  // bearing measurements.
  sensed_.measurements.clear();
  network_.detecting_nodes(truth.position, sensed_.detections);
  for (const wsn::NodeId id : sensed_.detections) {
    sensed_.measurements.push_back(
        {id, bearing_.measure(network_.true_position(id), truth.position, rng)});
  }

  CDPF_TRACE_SPAN("cdpf-iteration");
  CDPF_CHECK_MSG(std::isfinite(time), "iteration time must be finite");
  last_iteration_time_ = time;
  has_iterated_ = true;

  if (store_.empty()) {
    // Initialization step: the nodes that first detect the intruding target
    // each create a particle (sensing only — no communication).
    initialize_from_detections(rng);
    if (store_.empty()) {
      return;  // target not detected yet
    }
    // The initial weights are known constants, so the correction machinery
    // has a total to work with at the first real iteration.
    predicted_position_.reset();
  } else {
    // -- Step 1: Prediction — propagate particles along the trajectory.
    //    The outcome and its scratch are reused members: reset() rewinds
    //    them without releasing capacity, so the round allocates nothing.
    propagation_.reset();
    {
      CDPF_TRACE_SPAN("cdpf-propagate");
      propagate_particles_into(store_, network_, radio_, motion_, rng, propagation_,
                               propagation_scratch_);
    }
    has_propagation_ = true;

    // -- Step 2: Correction — normalize by the overheard total, estimate
    //    the PREVIOUS iteration, resample (prune). ---------------------
    CDPF_TRACE_SPAN("cdpf-correct");
    if (propagation_.global.total_weight <= 0.0 || propagation_.next.empty()) {
      // Track lost (all particles dropped or no recorders). Reinitialize
      // from the current detections, like the cold start.
      CDPF_LOG_DEBUG(name() << ": track lost at t=" << time << ", reinitializing");
      store_.clear();
      has_propagation_ = false;
      last_recorders_.clear();
      predicted_position_.reset();
      initialize_from_detections(rng);
      if (store_.empty()) {
        return;
      }
    } else {
      const tracking::TargetState previous = propagation_.global.estimate();
      pending_estimates_.push_back({previous, time - config_.dt});
      predicted_position_ = previous.position + previous.velocity * config_.dt;

      // Hand the recorded set over by swapping buffers: store_ takes
      // propagation_.next and donates its (about to be discarded) previous
      // set as the next round's scratch. No copy, no allocation.
      store_.swap(propagation_.next);
      last_recorders_.assign(store_.sorted_hosts().begin(),
                             store_.sorted_hosts().end());

      store_.normalize_and_prune(propagation_.global.total_weight, kPruneThreshold);
    }
  }

  // -- Steps 3 + 4: Likelihood & Assign weight (or neighborhood estimate).
  if (!store_.empty()) {
    if (config_.use_neighborhood_estimation) {
      neighborhood_assign(sensed_.detections);
    } else {
      likelihood_and_assign(sensed_);
    }
  }

  CDPF_TRACE_SPAN("cdpf-assign");
  // A node that detects the target but holds no particle creates one, as in
  // the initialization step (paper §III-B, last paragraph); one that holds
  // a particle whose weight collapsed below that level raises it to the
  // same floor — its local detection contradicts the collapse. These
  // particles anchor the filter to the current detections and keep N_s
  // proportional to the detection neighborhood (paper §III-A: the hosting
  // nodes "are always around the target trajectory" and bounded by the
  // deployment density).
  const double anchor_weight = new_particle_weight();
  for (const wsn::NodeId node : sensed_.detections) {
    if (!store_.contains(node)) {
      store_.add(node, sample_initial_velocity(rng), anchor_weight);
    } else {
      store_.raise_weight_to(node, anchor_weight);
    }
  }

  // Distributed resampling, paper §III-B: "if the likelihood function shows
  // zero or almost zero density, this node may drop the particle on it and
  // stop broadcasting". Dropping happens here — after the weight update and
  // BEFORE the next propagation round — so negligible hosts never transmit
  // again. The threshold is relative to the current total (a host compares
  // its own weight with the total it will overhear anyway).
  const double total = store_.total_weight();
  if (total <= 0.0) {
    // Weight update annihilated every particle and nothing detects the
    // target: reinitialize at the next iteration.
    store_.clear();
    return;
  }
  double threshold = kPruneThreshold * total;
  if (config_.use_neighborhood_estimation) {
    // NE has no sharp likelihood to concentrate mass: a host whose weight
    // falls below the mean (locally computable from the overheard
    // aggregate) stops broadcasting. This rule is what keeps the NE particle
    // population — and therefore its propagation traffic, the only traffic
    // it has — at or below CDPF's.
    const double mean = total / static_cast<double>(store_.size());
    threshold = std::max(threshold, mean);
  }
  store_.prune_below(threshold);
}

void Cdpf::likelihood_and_assign(const SensingSnapshot& snapshot) {
  CDPF_TRACE_SPAN("cdpf-likelihood");
  // Step 3: every measuring node broadcasts its measurement (D_m). Hosts
  // evaluate the joint likelihood of the measurements they can hear.
  // Whether a host heard measurement m is decided by the distance gate of
  // BearingEvidence::host_factors, so the broadcasts only need their
  // statistics charged — no receiver list.
  const auto& shared = snapshot.measurements;
  for (const SensingSnapshot::Measurement& m : shared) {
    radio_.broadcast(m.sender, wsn::MessageKind::kMeasurement,
                     radio_.payloads().measurement);
  }
  if (shared.empty()) {
    return;  // no information this iteration; weights carry over
  }
  // Step 4: w <- w * prod_m p(z_m | particle position), evaluated in the
  // log domain relative to the sender centroid, a reference every host
  // knows (BearingEvidence::host_factors). Any constant shared by all hosts
  // cancels at the next normalization. Genuine underflow to zero remains
  // the paper's "drop the particle when the likelihood shows (almost) zero
  // density". Hosts are scored in one batch, in sorted-host order.
  evidence_.clear();
  for (const SensingSnapshot::Measurement& m : shared) {
    evidence_.add(network_.position(m.sender), m.bearing_rad);
  }
  const std::vector<wsn::NodeId>& hosts = store_.sorted_hosts();
  host_positions_.clear();
  for (const wsn::NodeId host : hosts) {
    host_positions_.add(network_.position(host));
  }
  evidence_.host_factors(host_positions_.x, host_positions_.y, host_positions_.scores);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    store_.scale_weight(hosts[i], host_positions_.scores[i]);
  }
}

void Cdpf::neighborhood_assign(const std::vector<wsn::NodeId>& detecting) {
  CDPF_TRACE_SPAN("cdpf-ne-assign");
  if (!predicted_position_.has_value()) {
    // No prediction yet (first iteration after (re)initialization): without
    // a predicted position there is nothing to estimate against; keep the
    // constant initial weights.
    return;
  }
  const geom::Vec2 predicted = *predicted_position_;
  // All active nodes inside the estimation area participate in the
  // normalization set (they are the nodes that may detect the target). The
  // grid selects them by physical position; their contributions use the
  // positions the nodes believe they hold (position()), which is what a
  // node shares with its neighbors under a localization experiment.
  area_nodes_.clear();
  area_positions_.clear();
  network_.visit_active_within(predicted, network_.config().sensing_radius,
                               [&](wsn::NodeId id, geom::Vec2, geom::Vec2 believed) {
                                 area_nodes_.push_back(id);
                                 area_positions_.push_back(believed);
                               });
  estimated_contributions(area_positions_, predicted, area_contributions_);

  // Index contributions and the detecting set by NodeId so the host loop
  // below is O(hosts) instead of O(hosts * (area + detections)). The tables
  // are epoch-stamped: bumping node_epoch_ invalidates every stale entry
  // without clearing the arrays.
  ++node_epoch_;
  for (std::size_t i = 0; i < area_nodes_.size(); ++i) {
    node_contribution_[area_nodes_[i]] = area_contributions_[i];
    contribution_stamp_[area_nodes_[i]] = node_epoch_;
  }
  for (const wsn::NodeId id : detecting) {
    detection_stamp_[id] = node_epoch_;
  }

  // w_{k+1} = w_k * c_0 for hosts inside the area; hosts outside have
  // (estimated) zero contribution and are dropped at the next prune. A host
  // whose own sensor detects the target additionally multiplies in the
  // detection boost — its one locally available (communication-free)
  // measurement.
  for (const wsn::NodeId host : store_.sorted_hosts()) {
    double c = contribution_stamp_[host] == node_epoch_ ? node_contribution_[host] : 0.0;
    if (detection_stamp_[host] == node_epoch_) {
      // A detecting host outside the (mispredicted) estimation area floors
      // its contribution at the area's mean — its own detection says the
      // prediction, not the particle, is wrong.
      c = std::max(c, 1.0 / static_cast<double>(area_nodes_.size() + 1)) *
          kDetectionWeightBoost;
    }
    store_.scale_weight(host, c);
  }
}

void Cdpf::finalize() {
  // The correction step only estimates iteration k during iteration k+1;
  // flush the estimate for the final iteration from the current store.
  if (!has_iterated_ || store_.empty() || store_.total_weight() <= 0.0) {
    return;
  }
  pending_estimates_.push_back({store_.estimate(network_), last_iteration_time_});
}

}  // namespace cdpf::core
