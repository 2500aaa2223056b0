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
// ParticleStore sits on the per-iteration hot path (one lookup per broadcast
// receiver), so it stores particles in a dense vector indexed by an
// open-addressing host table whose slots are invalidated by bumping an epoch
// counter — clear() is O(1) and a steady-state iteration performs no heap
// allocation once the buffers are warm.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
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
  /// O(1): drops the particles and invalidates every host slot by epoch;
  /// all capacity is retained for reuse.
  void clear();

  /// Pre-size the dense storage and the host table for up to `hosts`
  /// particles so later add() calls never reallocate.
  void reserve(std::size_t hosts);

  /// Exchange contents (and warmed capacity) with `other` in O(1) — the
  /// buffer ping-pong the filter iteration uses to avoid copying the
  /// propagated set back into the working store.
  void swap(ParticleStore& other) noexcept;

  double total_weight() const;

  bool contains(wsn::NodeId host) const { return find(host) != nullptr; }
  const NodeParticle* find(wsn::NodeId host) const {
    if (particles_.empty()) {
      return nullptr;
    }
    const std::size_t slot = probe(host);
    return slot_stamp_[slot] == table_epoch_ ? &particles_[slot_index_[slot]] : nullptr;
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
  // Fibonacci hashing: multiply by 2^64 / phi and keep the high bits. Host
  // ids are small sequential integers, and this spreads them uniformly over
  // any power-of-two table.
  static constexpr std::uint64_t kFibonacciMultiplier = 0x9E3779B97F4A7C15ull;

  NodeParticle* find_mutable(wsn::NodeId host) {
    if (particles_.empty()) {
      return nullptr;
    }
    const std::size_t slot = probe(host);
    return slot_stamp_[slot] == table_epoch_ ? &particles_[slot_index_[slot]] : nullptr;
  }
  /// Probe for `host`; returns the slot holding it, or the empty slot where
  /// it would be inserted. Requires a non-empty table.
  std::size_t probe(wsn::NodeId host) const {
    CDPF_ASSERT(!slot_host_.empty());
    const std::size_t mask = slot_host_.size() - 1;
    std::size_t slot =
        static_cast<std::size_t>((host * kFibonacciMultiplier) >> hash_shift_);
    while (slot_stamp_[slot] == table_epoch_ && slot_host_[slot] != host) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }
  /// Cold half of add(): first particle on this host this round.
  void add_new_host(wsn::NodeId host, geom::Vec2 velocity, double weight);
  /// Grow the host table to at least `min_slots` slots and re-insert every
  /// live particle.
  void grow_table(std::size_t min_slots);
  /// Invalidate all slots (epoch bump) and re-insert every live particle.
  void rebuild_table();
  void place(wsn::NodeId host, std::uint32_t index);

  std::vector<NodeParticle> particles_;

  // Open-addressing host -> particle index table: power-of-two capacity,
  // Fibonacci hashing, linear probing. A slot is live iff its stamp equals
  // the current epoch, so invalidating the whole table is one increment.
  std::vector<wsn::NodeId> slot_host_;
  std::vector<std::uint32_t> slot_index_;
  std::vector<std::uint64_t> slot_stamp_;
  std::uint64_t table_epoch_ = 1;
  unsigned hash_shift_ = 0;  // 64 - log2(slot count)

  // sorted_hosts() cache, invalidated by host-set version mismatch.
  std::uint64_t host_version_ = 1;
  mutable std::vector<wsn::NodeId> sorted_cache_;
  mutable std::uint64_t sorted_version_ = 0;
};

}  // namespace cdpf::core
