#include "core/gmm_dpf.hpp"

#include <cmath>
#include <limits>

#include "support/check.hpp"

namespace cdpf::core {

namespace {

constexpr std::size_t kNumParticles = 500;  // cloud size at the cluster head
constexpr std::size_t kMixtureComponents = 3;
constexpr std::size_t kEmIterations = 10;

}  // namespace

GmmDpf::GmmDpf(wsn::Network& network, wsn::Radio& radio, GmmDpfConfig config)
    : network_(network),
      radio_(radio),
      config_(config),
      bearing_(config.sigma_bearing),
      router_(network),
      filter_(tracking::make_motion_model(config.dt),
              filters::SirFilterConfig{kNumParticles}),
      received_(config.sigma_bearing, kCloudResolutionM) {}

void GmmDpf::reinitialize_cloud(geom::Vec2 center, rng::Rng& rng) {
  filter_.initialize({center, kInitialVelocityMean},
                     {kInitialPositionSigma, kInitialPositionSigma},
                     {kInitialVelocitySigma, kInitialVelocitySigma}, rng);
}

void GmmDpf::iterate(const tracking::TargetState& truth, double time, rng::Rng& rng) {
  CDPF_CHECK_MSG(std::isfinite(time), "iteration time must be finite");
  network_.detecting_nodes(truth.position, detecting_);

  if (detecting_.empty()) {
    if (!filter_.initialized()) {
      return;  // nothing to do before first contact
    }
    // Coast: predict at the current head, no communication.
    filter_.predict(rng);
    pending_estimates_.push_back({filter_.estimate(), time});
    return;
  }

  // 1. Head election: detecting node nearest the detecting centroid.
  geom::Vec2 centroid{};
  for (const wsn::NodeId id : detecting_) {
    centroid += network_.position(id);
  }
  centroid = centroid / static_cast<double>(detecting_.size());
  wsn::NodeId new_head = detecting_.front();
  double best = std::numeric_limits<double>::infinity();
  for (const wsn::NodeId id : detecting_) {
    const double d = geom::distance_squared(network_.position(id), centroid);
    if (d < best) {
      best = d;
      new_head = id;
    }
  }

  if (!filter_.initialized()) {
    head_ = new_head;
    reinitialize_cloud(centroid, rng);
  } else if (new_head != head_) {
    // 4. Lossy handoff: fit the posterior to a mixture, transmit the
    // parameters, and reconstruct the cloud at the new head by sampling.
    const filters::GaussianMixture mixture = filters::GaussianMixture::fit(
        filter_.particles(), kMixtureComponents, rng, kEmIterations);
    if (head_ != wsn::kInvalidNodeId && network_.is_active(head_) &&
        network_.is_active(new_head)) {
      router_.send(radio_, head_, new_head, wsn::MessageKind::kParticle,
                   mixture.packed_size_bytes());
    }
    ++handoffs_;
    const double w = 1.0 / static_cast<double>(kNumParticles);
    // Positions come from the mixture; velocities survive only through the
    // mixture mean drift, so re-draw them around the previous mean velocity
    // (the handoff is genuinely lossy — that is the point of the baseline).
    const tracking::TargetState prev_mean = filter_.estimate();
    std::vector<filters::Particle> cloud;
    cloud.reserve(kNumParticles);
    for (std::size_t i = 0; i < kNumParticles; ++i) {
      tracking::TargetState s;
      s.position = mixture.sample(rng);
      s.velocity = {rng.gaussian(prev_mean.velocity.x, kInitialVelocitySigma),
                    rng.gaussian(prev_mean.velocity.y, kInitialVelocitySigma)};
      cloud.push_back({s, w});
    }
    filter_.initialize(std::move(cloud));
    head_ = new_head;
  }

  // 2. Members unicast their measurements to the head.
  received_.clear();
  for (const wsn::NodeId id : detecting_) {
    const double z = bearing_.measure(network_.true_position(id), truth.position, rng);
    if (id != head_) {
      if (!radio_.unicast(id, head_, wsn::MessageKind::kMeasurement,
                          radio_.payloads().measurement)) {
        continue;  // member out of the head's range: measurement lost
      }
    }
    received_.add(network_.position(id), z);
  }

  // 3. Local SIR step at the head.
  filter_.predict(rng);
  if (!received_.empty()) {
    particle_positions_.assign_positions(filter_.particles());
    received_.log_likelihoods(particle_positions_.x, particle_positions_.y,
                              particle_positions_.scores);
    const double max_log_likelihood = filter_.update(particle_positions_.scores);
    if (max_log_likelihood == -std::numeric_limits<double>::infinity()) {
      reinitialize_cloud(centroid, rng);  // track lost: restart on detections
    } else {
      filter_.resample(rng);
    }
  }

  pending_estimates_.push_back({filter_.estimate(), time});

  // 5. Report to the sink.
  if (network_.is_active(head_)) {
    router_.send(radio_, head_, network_.sink(), wsn::MessageKind::kEstimate,
                 radio_.payloads().estimate);
  }
}

}  // namespace cdpf::core
