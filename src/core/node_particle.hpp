// "Particles on nodes" — the particle architecture of CDPF (paper §III-A,
// following Coates & Ing's interpretation of "distributed").
//
// A particle is constrained to *locate on a sensor node*: its position is
// its host node's position, so only the velocity part of the state and the
// weight are stored per particle. ParticleStore keeps at most ONE particle
// per node: particles arriving at the same host are combined (weights
// summed, velocity weight-averaged). This is CDPF's discipline and the
// stated source of most of its communication savings. (SDPF's discipline, a
// list of uncombined particles per node, lives in Sdpf as one host-sorted
// particle array.)
//
// ParticleStore sits on the per-iteration hot path (one lookup per recorded
// copy), so it stores particles in a dense vector and resolves a host through
// a plain NodeId-indexed array of positions into it: host ids are dense node
// ids below the network size, so no hashing is needed. Once reserve() has
// sized both for the network, a steady-state iteration performs no heap
// allocation.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geom/vec2.hpp"
#include "tracking/state.hpp"
#include "wsn/network.hpp"
#include "wsn/node.hpp"

namespace cdpf::core {

/// A combined particle hosted by one node (CDPF).
struct NodeParticle {
  wsn::NodeId host = wsn::kInvalidNodeId;
  geom::Vec2 velocity;  // position is the host node's position
  double weight = 0.0;
};

class ParticleStore {
 public:
  /// Add (or combine into) the particle hosted by `host`. Combination sums
  /// the weights and weight-averages the velocities (paper §III-A: multiple
  /// particles on a single node are combined to one, with the total weight).
  /// Invalidates pointers previously returned by find() when a new host is
  /// inserted. Defined here because the division loop calls it once per
  /// recorded copy — tens of thousands of times per round — and nearly all
  /// of those combine into an existing particle.
  void add(wsn::NodeId host, geom::Vec2 velocity, double weight) {
    CDPF_CHECK_MSG(std::isfinite(weight), "particle weight must be finite");
    CDPF_CHECK_MSG(weight >= 0.0, "particle weight must be non-negative");
    if (NodeParticle* existing = find_mutable(host)) {
      // Combine rule (paper §III-B): arriving mass adds, the velocity
      // becomes the mass-weighted mean — the combined particle carries
      // exactly the sum of the combined weights.
      const double total = existing->weight + weight;
      if (total > 0.0) {
        existing->velocity =
            (existing->velocity * existing->weight + velocity * weight) / total;
      }
      existing->weight = total;
      CDPF_ASSERT(std::isfinite(existing->weight));
      return;
    }
    add_new_host(host, velocity, weight);
  }

  /// Number of hosting nodes (== number of particles, N_s for CDPF).
  std::size_t size() const { return particles_.size(); }
  bool empty() const { return particles_.empty(); }
  /// Drops the particles and resets their index entries, O(size()); all
  /// capacity is retained for reuse.
  void clear();

  /// Pre-size the dense storage for up to `hosts` particles and the host
  /// index for node ids below `hosts`, so later add() calls on such ids
  /// never reallocate.
  void reserve(std::size_t hosts);

  /// Exchange contents (and warmed capacity) with `other` in O(1) — the
  /// buffer ping-pong the filter iteration uses to avoid copying the
  /// propagated set back into the working store.
  void swap(ParticleStore& other) noexcept;

  double total_weight() const;

  bool contains(wsn::NodeId host) const { return find(host) != nullptr; }
  const NodeParticle* find(wsn::NodeId host) const {
    return host < index_.size() && index_[host] != kNoParticle
               ? &particles_[index_[host]]
               : nullptr;
  }

  /// Multiply the weight of `host`'s particle by `factor`.
  void scale_weight(wsn::NodeId host, double factor);

  /// Raise the weight of `host`'s particle to at least `weight`.
  void raise_weight_to(wsn::NodeId host, double weight);

  /// Remove particles whose weight is below `threshold` (the distributed
  /// degenerate form of resampling: prune negligible-weight hosts; the
  /// "multiply" half of resampling is performed by division during
  /// propagation). Returns the number of dropped particles.
  std::size_t prune_below(double threshold);

  /// Divide every weight by `total` (the overheard aggregate), then drop
  /// the particles whose normalized weight is below `threshold`, in one
  /// pass over the dense array: each weight is divided once and the
  /// survivor compaction happens in the same traversal. Survivors keep
  /// their order, as prune_below() does. Returns the number of dropped
  /// particles.
  std::size_t normalize_and_prune(double total, double threshold);

  /// Weighted mean state over the hosted particles (positions taken from
  /// `network`). Requires a positive total weight.
  tracking::TargetState estimate(const wsn::Network& network) const;

  /// Dense particle storage. Order is deterministic: hosts appear in the
  /// order their particle was first created (which itself derives from the
  /// deterministic sorted-host broadcast order of the previous round).
  const std::vector<NodeParticle>& particles() const { return particles_; }

  /// Host ids sorted ascending — deterministic iteration order for
  /// reproducible RNG consumption. The result is cached and invalidated by
  /// a host-set version counter, so repeated calls between host-set
  /// mutations cost nothing; the reference stays valid until the next
  /// host-set mutation followed by another sorted_hosts() call. Not safe
  /// for concurrent calls on the same store (the cache is mutable).
  const std::vector<wsn::NodeId>& sorted_hosts() const;

 private:
  /// index_ entry of a host that holds no particle.
  static constexpr std::uint32_t kNoParticle = std::numeric_limits<std::uint32_t>::max();

  NodeParticle* find_mutable(wsn::NodeId host) {
    return const_cast<NodeParticle*>(std::as_const(*this).find(host));
  }
  /// Cold half of add(): first particle on this host this round.
  void add_new_host(wsn::NodeId host, geom::Vec2 velocity, double weight);
  /// Keep the particles for which `keep` (which may rewrite the particle it
  /// is handed) returns true, in their order, and reset the index entries of
  /// the dropped ones. Returns the number of dropped particles.
  template <typename Keep>
  std::size_t retain(Keep&& keep);

  std::vector<NodeParticle> particles_;
  /// host -> position of its particle in particles_, kNoParticle when the
  /// host holds none. Grows to cover the largest host id ever added.
  std::vector<std::uint32_t> index_;

  // sorted_hosts() cache, invalidated by host-set version mismatch.
  std::uint64_t host_version_ = 1;
  mutable std::vector<wsn::NodeId> sorted_cache_;
  mutable std::uint64_t sorted_version_ = 0;
};

}  // namespace cdpf::core
