// Resampling schemes.
//
// Resampling combats weight degeneracy by replacing the weighted set with an
// equally weighted set drawn (approximately) in proportion to the weights.
// All four classic schemes are implemented; SIR filters (and the paper's
// algorithms) resample every iteration with the systematic scheme by
// default, and the ablation bench A5 compares the alternatives inside CDPF.
//
// Contracts common to all schemes: `weights` must contain at least one
// strictly positive entry (they need not be normalized); the output is
// `count` ancestor indices into `weights`; every scheme is unbiased, i.e.
// E[#offspring of i] = count * w_i / sum(w).
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "filters/particle.hpp"
#include "random/rng.hpp"

namespace cdpf::filters {

enum class ResamplingScheme : std::uint8_t {
  kMultinomial,  // count i.i.d. categorical draws — highest variance
  kStratified,   // one draw per stratum [i/count, (i+1)/count)
  kSystematic,   // single draw, offsets i/count — lowest variance, O(count)
  kResidual,     // deterministic floor(count * w) copies + multinomial rest
};

std::string_view resampling_scheme_name(ResamplingScheme scheme);

/// Batch prefix sum of `weights` into `out` (resized to weights.size()):
/// out[i] = sum of weights[0..i], each partial compensated (NeumaierSum) so
/// the sequence matches an incremental compensated walk value for value.
/// Returns the total (== out.back()). Shared by the multinomial and
/// residual schemes.
double cumulative_weights(std::span<const double> weights, std::vector<double>& out);

/// Draw `count` ancestor indices according to `scheme` into `indices`
/// (cleared first), with `scratch` holding the cumulative/residual staging;
/// allocation-free once both have capacity for weights.size() (indices:
/// count).
void resample_indices_into(std::span<const double> weights, std::size_t count,
                           ResamplingScheme scheme, rng::Rng& rng,
                           std::vector<std::size_t>& indices,
                           std::vector<double>& scratch);

/// Reusable buffers of resample_particles(): once they have grown to the
/// particle count, resampling a set of that size does not allocate.
struct ResampleScratch {
  std::vector<double> weights;
  std::vector<std::size_t> indices;
  std::vector<double> cumulative;
  std::vector<Particle> next;
};

/// In-place resampling of a particle set to `count` particles with equal
/// weights summing to the original total (so un-normalized sets keep their
/// mass — important for CDPF where the total is the overheard aggregate).
/// `particles` swaps storage with `scratch.next`.
void resample_particles(std::vector<Particle>& particles, std::size_t count,
                        ResamplingScheme scheme, rng::Rng& rng,
                        ResampleScratch& scratch);

/// The same resampling of a contiguous range back to its own size, written
/// in place (for a sub-range of a larger array, such as one SDPF host's
/// particles).
void resample_particles(std::span<Particle> particles, ResamplingScheme scheme,
                        rng::Rng& rng, ResampleScratch& scratch);

}  // namespace cdpf::filters
