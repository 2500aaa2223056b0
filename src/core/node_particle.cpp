#include "core/node_particle.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/check.hpp"
#include "support/statistics.hpp"
#include "support/trace.hpp"

namespace cdpf::core {

template <typename Keep>
std::size_t ParticleStore::retain(Keep&& keep) {
  std::size_t out = 0;
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    NodeParticle particle = particles_[i];
    if (!keep(particle)) {
      index_[particle.host] = kNoParticle;
      continue;
    }
    index_[particle.host] = static_cast<std::uint32_t>(out);
    particles_[out] = particle;
    ++out;
  }
  const std::size_t dropped = particles_.size() - out;
  if (dropped > 0) {
    particles_.resize(out);
    ++host_version_;
  }
  return dropped;
}

void ParticleStore::add_new_host(wsn::NodeId host, geom::Vec2 velocity,
                                 double weight) {
  // add() validated the weight before dispatching here.
  CDPF_ASSERT(std::isfinite(weight) && weight >= 0.0);
  CDPF_CHECK_MSG(host != wsn::kInvalidNodeId, "particle host must be a valid node id");
  if (host >= index_.size()) {
    index_.resize(static_cast<std::size_t>(host) + 1, kNoParticle);
  }
  index_[host] = static_cast<std::uint32_t>(particles_.size());
  particles_.push_back(NodeParticle{host, velocity, weight});
  ++host_version_;
}

void ParticleStore::clear() {
  for (const NodeParticle& p : particles_) {
    index_[p.host] = kNoParticle;
  }
  particles_.clear();
  ++host_version_;
}

void ParticleStore::reserve(std::size_t hosts) {
  particles_.reserve(hosts);
  sorted_cache_.reserve(hosts);
  if (index_.size() < hosts) {
    index_.resize(hosts, kNoParticle);
  }
}

void ParticleStore::swap(ParticleStore& other) noexcept {
  particles_.swap(other.particles_);
  index_.swap(other.index_);
  std::swap(host_version_, other.host_version_);
  sorted_cache_.swap(other.sorted_cache_);
  std::swap(sorted_version_, other.sorted_version_);
}

double ParticleStore::total_weight() const {
  return support::weight_total(particles_,
                               [](const NodeParticle& p) { return p.weight; });
}

void ParticleStore::scale_weight(wsn::NodeId host, double factor) {
  CDPF_CHECK_MSG(factor >= 0.0, "weight factor must be non-negative");
  NodeParticle* p = find_mutable(host);
  CDPF_CHECK_MSG(p != nullptr, "no particle hosted on this node");
  p->weight *= factor;
  // Likelihood assignment lands here (w <- w * p(z|x)); a NaN factor or an
  // overflowing product would silently poison every later total.
  CDPF_ASSERT(std::isfinite(p->weight));
}

void ParticleStore::raise_weight_to(wsn::NodeId host, double weight) {
  NodeParticle* p = find_mutable(host);
  CDPF_CHECK_MSG(p != nullptr, "no particle hosted on this node");
  if (p->weight < weight) {
    p->weight = weight;
  }
}

std::size_t ParticleStore::prune_below(double threshold) {
  CDPF_CHECK_MSG(std::isfinite(threshold) && threshold >= 0.0,
                 "prune threshold must be finite and non-negative");
  return retain([threshold](const NodeParticle& p) { return !(p.weight < threshold); });
}

std::size_t ParticleStore::normalize_and_prune(double total, double threshold) {
  CDPF_TRACE_SPAN("store-normalize-prune");
  CDPF_CHECK_MSG(total > 0.0, "cannot normalize with a non-positive total weight");
  CDPF_CHECK_MSG(std::isfinite(threshold) && threshold >= 0.0,
                 "prune threshold must be finite and non-negative");
  return retain([total, threshold](NodeParticle& p) {
    p.weight /= total;
    return !(p.weight < threshold);
  });
}

tracking::TargetState ParticleStore::estimate(const wsn::Network& network) const {
  const double total = total_weight();
  CDPF_CHECK_MSG(total > 0.0, "estimate needs a positive total weight");
  geom::Vec2 position{};
  geom::Vec2 velocity{};
  for (const NodeParticle& p : particles_) {
    position += network.position(p.host) * p.weight;
    velocity += p.velocity * p.weight;
  }
  return {position / total, velocity / total};
}

const std::vector<wsn::NodeId>& ParticleStore::sorted_hosts() const {
  if (sorted_version_ != host_version_) {
    sorted_cache_.clear();
    for (const NodeParticle& p : particles_) {
      sorted_cache_.push_back(p.host);
    }
    std::sort(sorted_cache_.begin(), sorted_cache_.end());
    sorted_version_ = host_version_;
  }
  return sorted_cache_;
}

}  // namespace cdpf::core
