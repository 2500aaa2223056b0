#include "core/gmm_dpf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/batch_kernels.hpp"
#include "support/check.hpp"
#include "support/statistics.hpp"

namespace cdpf::core {

GmmDpf::GmmDpf(wsn::Network& network, wsn::Radio& radio, GmmDpfConfig config)
    : network_(network),
      radio_(radio),
      config_(config),
      bearing_(config.sigma_bearing),
      router_(network),
      motion_(tracking::make_motion_model(config.motion, config.dt)) {
  CDPF_CHECK_MSG(config_.num_particles > 0, "GMM-DPF needs particles");
  CDPF_CHECK_MSG(config_.mixture_components >= 1, "GMM-DPF needs >= 1 component");
}

void GmmDpf::reinitialize_cloud(geom::Vec2 center, rng::Rng& rng) {
  cloud_.clear();
  cloud_.reserve(config_.num_particles);
  const double w = 1.0 / static_cast<double>(config_.num_particles);
  for (std::size_t i = 0; i < config_.num_particles; ++i) {
    tracking::TargetState s;
    s.position = {rng.gaussian(center.x, config_.init_position_sigma),
                  rng.gaussian(center.y, config_.init_position_sigma)};
    s.velocity = {
        rng.gaussian(config_.initial_velocity_mean.x, config_.initial_velocity_sigma),
        rng.gaussian(config_.initial_velocity_mean.y, config_.initial_velocity_sigma)};
    cloud_.push_back({s, w});
  }
}

void GmmDpf::iterate(const tracking::TargetState& truth, double time, rng::Rng& rng) {
  CDPF_CHECK_MSG(std::isfinite(time), "iteration time must be finite");
  const std::vector<wsn::NodeId> detecting = network_.detecting_nodes(truth.position);

  if (detecting.empty()) {
    if (cloud_.empty()) {
      return;  // nothing to do before first contact
    }
    // Coast: predict at the current head, no communication.
    for (filters::Particle& p : cloud_) {
      p.state = motion_->sample(p.state, rng);
    }
    pending_estimates_.push_back({filters::weighted_mean_state(cloud_), time});
    return;
  }

  // 1. Head election: detecting node nearest the detecting centroid.
  geom::Vec2 centroid{};
  for (const wsn::NodeId id : detecting) {
    centroid += network_.position(id);
  }
  centroid = centroid / static_cast<double>(detecting.size());
  wsn::NodeId new_head = detecting.front();
  double best = std::numeric_limits<double>::infinity();
  for (const wsn::NodeId id : detecting) {
    const double d = geom::distance_squared(network_.position(id), centroid);
    if (d < best) {
      best = d;
      new_head = id;
    }
  }

  if (cloud_.empty()) {
    head_ = new_head;
    reinitialize_cloud(centroid, rng);
  } else if (new_head != head_) {
    // 4. Lossy handoff: fit the posterior to a mixture, transmit the
    // parameters, and reconstruct the cloud at the new head by sampling.
    const filters::GaussianMixture mixture =
        filters::GaussianMixture::fit(cloud_, config_.mixture_components, rng,
                                      config_.em_iterations);
    if (head_ != wsn::kInvalidNodeId && network_.is_active(head_) &&
        network_.is_active(new_head)) {
      router_.send(radio_, head_, new_head, wsn::MessageKind::kParticle,
                   mixture.packed_size_bytes());
    }
    ++handoffs_;
    const double w = 1.0 / static_cast<double>(config_.num_particles);
    // Positions come from the mixture; velocities survive only through the
    // mixture mean drift, so re-draw them around the previous mean velocity
    // (the handoff is genuinely lossy — that is the point of the baseline).
    const tracking::TargetState prev_mean = filters::weighted_mean_state(cloud_);
    cloud_.clear();
    for (std::size_t i = 0; i < config_.num_particles; ++i) {
      tracking::TargetState s;
      s.position = mixture.sample(rng);
      s.velocity = {rng.gaussian(prev_mean.velocity.x, config_.initial_velocity_sigma),
                    rng.gaussian(prev_mean.velocity.y, config_.initial_velocity_sigma)};
      cloud_.push_back({s, w});
    }
    head_ = new_head;
  }

  // 2. Members unicast their measurements to the head.
  struct Received {
    geom::Vec2 sensor;
    double bearing;
  };
  std::vector<Received> received;
  for (const wsn::NodeId id : detecting) {
    const double z = bearing_.measure(network_.position(id), truth.position, rng);
    if (id != head_) {
      if (!radio_.unicast(id, head_, wsn::MessageKind::kMeasurement,
                          radio_.payloads().measurement)) {
        continue;  // member out of the head's range: measurement lost
      }
    }
    received.push_back({network_.position(id), z});
  }

  // 3. Local SIR step at the head.
  for (filters::Particle& p : cloud_) {
    p.state = motion_->sample(p.state, rng);
  }
  if (!received.empty()) {
    const BearingBatchParams params(bearing_.sigma(), config_.position_resolution_m);
    double max_ll = -std::numeric_limits<double>::infinity();
    std::vector<double> ll(cloud_.size());
    for (std::size_t i = 0; i < cloud_.size(); ++i) {
      const geom::Vec2 p = cloud_[i].state.position;
      double sum = 0.0;
      for (const Received& r : received) {
        const double dx = p.x - r.sensor.x;
        const double dy = p.y - r.sensor.y;
        sum += bearing_pair_log_likelihood(r.bearing, dx, dy, dx * dx + dy * dy, params);
      }
      ll[i] = sum;
      max_ll = std::max(max_ll, sum);
    }
    support::NeumaierSum sum;
    for (std::size_t i = 0; i < cloud_.size(); ++i) {
      cloud_[i].weight *= std::exp(ll[i] - max_ll);
      sum.add(cloud_[i].weight);
    }
    const double total = sum.value();
    if (total > 0.0) {
      filters::normalize_weights(cloud_, total);
      filters::resample_particles(cloud_, config_.num_particles, config_.resampling,
                                  rng);
    } else {
      reinitialize_cloud(centroid, rng);  // track lost: restart on detections
    }
  }

  const tracking::TargetState estimate = filters::weighted_mean_state(cloud_);
  pending_estimates_.push_back({estimate, time});

  // 5. Report to the sink.
  if (config_.report_to_sink && network_.is_active(head_)) {
    router_.send(radio_, head_, network_.sink(), wsn::MessageKind::kEstimate,
                 radio_.payloads().estimate);
  }
}

std::vector<TimedEstimate> GmmDpf::take_estimates() {
  std::vector<TimedEstimate> out = std::move(pending_estimates_);
  pending_estimates_.clear();
  return out;
}

}  // namespace cdpf::core
