#include "core/node_particle.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "support/check.hpp"
#include "support/statistics.hpp"
#include "support/trace.hpp"

namespace cdpf::core {

namespace {
constexpr std::size_t kMinSlots = 16;
}  // namespace

void ParticleStore::place(wsn::NodeId host, std::uint32_t index) {
  const std::size_t slot = probe(host);
  slot_host_[slot] = host;
  slot_index_[slot] = index;
  slot_stamp_[slot] = table_epoch_;
}

void ParticleStore::grow_table(std::size_t min_slots) {
  std::size_t slots = std::max(kMinSlots, slot_host_.size());
  while (slots < min_slots) {
    slots *= 2;
  }
  slot_host_.assign(slots, wsn::kInvalidNodeId);
  slot_index_.assign(slots, 0);
  slot_stamp_.assign(slots, 0);
  hash_shift_ = 64;
  for (std::size_t s = slots; s > 1; s /= 2) {
    --hash_shift_;
  }
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    place(particles_[i].host, static_cast<std::uint32_t>(i));
  }
}

void ParticleStore::rebuild_table() {
  ++table_epoch_;
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    place(particles_[i].host, static_cast<std::uint32_t>(i));
  }
}

void ParticleStore::add_new_host(wsn::NodeId host, geom::Vec2 velocity,
                                 double weight) {
  // add() validated the weight before dispatching here.
  CDPF_ASSERT(std::isfinite(weight) && weight >= 0.0);
  // Keep the load factor at or below 1/2 so probe chains stay short.
  if ((particles_.size() + 1) * 2 > slot_host_.size()) {
    grow_table((particles_.size() + 1) * 2);
  }
  particles_.push_back(NodeParticle{host, velocity, weight});
  place(host, static_cast<std::uint32_t>(particles_.size() - 1));
  ++host_version_;
}

void ParticleStore::clear() {
  particles_.clear();
  ++table_epoch_;
  ++host_version_;
}

void ParticleStore::reserve(std::size_t hosts) {
  particles_.reserve(hosts);
  sorted_cache_.reserve(hosts);
  if (hosts * 2 > slot_host_.size()) {
    grow_table(hosts * 2);
  }
}

void ParticleStore::swap(ParticleStore& other) noexcept {
  particles_.swap(other.particles_);
  slot_host_.swap(other.slot_host_);
  slot_index_.swap(other.slot_index_);
  slot_stamp_.swap(other.slot_stamp_);
  std::swap(table_epoch_, other.table_epoch_);
  std::swap(hash_shift_, other.hash_shift_);
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
  const auto survivors_end =
      std::remove_if(particles_.begin(), particles_.end(),
                     [threshold](const NodeParticle& p) { return p.weight < threshold; });
  const auto dropped = static_cast<std::size_t>(particles_.end() - survivors_end);
  if (dropped > 0) {
    particles_.erase(survivors_end, particles_.end());
    rebuild_table();
    ++host_version_;
  }
  return dropped;
}

std::size_t ParticleStore::normalize_and_prune(double total, double threshold) {
  CDPF_TRACE_SPAN("store-normalize-prune");
  CDPF_CHECK_MSG(total > 0.0, "cannot normalize with a non-positive total weight");
  CDPF_CHECK_MSG(std::isfinite(threshold) && threshold >= 0.0,
                 "prune threshold must be finite and non-negative");
  std::size_t out = 0;
  for (std::size_t i = 0; i < particles_.size(); ++i) {
    const double weight = particles_[i].weight / total;
    if (weight < threshold) {
      continue;
    }
    particles_[out] = particles_[i];
    particles_[out].weight = weight;
    ++out;
  }
  const std::size_t dropped = particles_.size() - out;
  if (dropped > 0) {
    particles_.resize(out);
    rebuild_table();
    ++host_version_;
  }
  return dropped;
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
