// Weighted particles and particle-set utilities shared by every filter in
// the library (centralized SIR, SDPF, CDPF, CDPF-NE).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/vec2.hpp"
#include "tracking/state.hpp"

namespace cdpf::filters {

struct Particle {
  tracking::TargetState state;
  double weight = 0.0;
};

/// Sum of weights; 0 for an empty set.
double total_weight(std::span<const Particle> particles);

/// Divide every weight by the given total (callers pass a precomputed total
/// when it was obtained by overhearing rather than local summation).
/// Throws cdpf::Error when total <= 0.
void normalize_weights(std::span<Particle> particles, double total);

/// Effective sample size 1 / sum(w_i^2) of *normalized* weights; the classic
/// degeneracy diagnostic. Returns 0 for an empty set.
double effective_sample_size(std::span<const Particle> particles);

/// Weighted mean of particle states (positions and velocities). Requires a
/// positive total weight.
tracking::TargetState weighted_mean_state(std::span<const Particle> particles);

}  // namespace cdpf::filters
