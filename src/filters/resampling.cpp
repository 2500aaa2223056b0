#include "filters/resampling.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/statistics.hpp"
#include "support/trace.hpp"

namespace cdpf::filters {

std::string_view resampling_scheme_name(ResamplingScheme scheme) {
  switch (scheme) {
    case ResamplingScheme::kMultinomial: return "multinomial";
    case ResamplingScheme::kStratified: return "stratified";
    case ResamplingScheme::kSystematic: return "systematic";
    case ResamplingScheme::kResidual: return "residual";
  }
  return "?";
}

namespace {

double checked_total(std::span<const double> weights) {
  CDPF_CHECK_MSG(!weights.empty(), "resampling needs at least one weight");
  support::NeumaierSum total;
  for (const double w : weights) {
    CDPF_CHECK_MSG(w >= 0.0, "weights must be non-negative");
    total.add(w);
  }
  CDPF_CHECK_MSG(total.value() > 0.0, "resampling needs a positive total weight");
  return total.value();
}

/// Walk the cumulative weights with `count` ordered pointers produced by
/// `pointer(i)`; shared by the stratified and systematic schemes. The
/// incremental compensated walk produces the same partial values as
/// cumulative_weights(), so the two formulations select identical ancestors.
template <typename PointerFn>
void ordered_pointer_resample(std::span<const double> weights, std::size_t count,
                              double total, PointerFn pointer,
                              std::vector<std::size_t>& indices) {
  support::NeumaierSum cumulative;
  cumulative.add(weights[0]);
  std::size_t j = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double u = pointer(i) * total;
    while (u > cumulative.value() && j + 1 < weights.size()) {
      ++j;
      cumulative.add(weights[j]);
    }
    indices.push_back(j);
  }
}

/// Inverse-CDF draw against a cumulative array, clamped to the last index.
std::size_t draw_index(const std::vector<double>& cumulative, double u) {
  const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
  return static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cumulative.begin(),
                               static_cast<std::ptrdiff_t>(cumulative.size()) - 1));
}

}  // namespace

double cumulative_weights(std::span<const double> weights, std::vector<double>& out) {
  CDPF_CHECK_MSG(!weights.empty(), "prefix sum needs at least one weight");
  out.resize(weights.size());
  support::NeumaierSum acc;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc.add(weights[i]);
    out[i] = acc.value();
  }
  return acc.value();
}

// Thin wrapper: resample_indices_into validates every precondition.
// cdpf-lint: allow(entry-check)
void resample_indices_into(std::span<const double> weights, std::size_t count,
                           ResamplingScheme scheme, rng::Rng& rng,
                           std::vector<std::size_t>& indices,
                           std::vector<double>& scratch) {
  CDPF_TRACE_SPAN("resample-indices");
  const double total = checked_total(weights);
  CDPF_CHECK_MSG(count > 0, "resampling must produce at least one particle");
  indices.clear();
  indices.reserve(count);

  switch (scheme) {
    case ResamplingScheme::kMultinomial: {
      // Sorting the uniforms would allow a single cumulative pass; for the
      // particle counts used here (<= a few thousand) the direct inverse-CDF
      // per draw is simpler and fast enough.
      cumulative_weights(weights, scratch);
      for (std::size_t i = 0; i < count; ++i) {
        indices.push_back(draw_index(scratch, rng.uniform() * total));
      }
      return;
    }
    case ResamplingScheme::kStratified: {
      const double n = static_cast<double>(count);
      ordered_pointer_resample(
          weights, count, total,
          [&](std::size_t i) { return (static_cast<double>(i) + rng.uniform()) / n; },
          indices);
      return;
    }
    case ResamplingScheme::kSystematic: {
      const double n = static_cast<double>(count);
      const double u0 = rng.uniform();
      ordered_pointer_resample(
          weights, count, total,
          [&](std::size_t i) { return (static_cast<double>(i) + u0) / n; }, indices);
      return;
    }
    case ResamplingScheme::kResidual: {
      const double n = static_cast<double>(count);
      // scratch holds the residual of each expected offspring count first,
      // then (in place) its prefix sum for the multinomial leftover draws.
      scratch.resize(weights.size());
      std::size_t deterministic = 0;
      for (std::size_t i = 0; i < weights.size(); ++i) {
        const double expected = n * weights[i] / total;
        const auto copies = static_cast<std::size_t>(std::floor(expected));
        indices.insert(indices.end(), copies, i);
        scratch[i] = expected - static_cast<double>(copies);
        deterministic += copies;
      }
      const std::size_t remaining = count - deterministic;
      if (remaining > 0) {
        // Multinomial over the residuals via inverse CDF + binary search
        // (O(m log n) instead of one O(n) categorical scan per draw).
        const double residual_total = cumulative_weights(scratch, scratch);
        if (residual_total <= 0.0) {
          // Floating-point edge: the floors consumed all the mass yet the
          // counts do not add up. Give the leftovers to the heaviest index.
          const auto heaviest = static_cast<std::size_t>(
              std::max_element(weights.begin(), weights.end()) - weights.begin());
          indices.insert(indices.end(), remaining, heaviest);
          return;
        }
        for (std::size_t i = 0; i < remaining; ++i) {
          indices.push_back(draw_index(scratch, rng.uniform() * residual_total));
        }
      }
      return;
    }
  }
  throw Error("unknown resampling scheme");
}

// Thin wrapper: the scratch overload validates every precondition.
// cdpf-lint: allow(entry-check)
namespace {

/// Draw `count` equally weighted offspring of `particles` into
/// `scratch.next`; the shared body of both resample_particles overloads.
void resample_into_next(std::span<const Particle> particles, std::size_t count,
                        ResamplingScheme scheme, rng::Rng& rng,
                        ResampleScratch& scratch) {
  CDPF_CHECK_MSG(!particles.empty(), "cannot resample an empty particle set");
  scratch.weights.clear();
  for (const Particle& p : particles) {
    scratch.weights.push_back(p.weight);
  }
  const double total = checked_total(scratch.weights);
  resample_indices_into(scratch.weights, count, scheme, rng, scratch.indices,
                        scratch.cumulative);
  scratch.next.clear();
  const double equal_weight = total / static_cast<double>(count);
  for (const std::size_t i : scratch.indices) {
    scratch.next.push_back({particles[i].state, equal_weight});
  }
}

}  // namespace

void resample_particles(std::vector<Particle>& particles, std::size_t count,
                        ResamplingScheme scheme, rng::Rng& rng,
                        ResampleScratch& scratch) {
  resample_into_next(particles, count, scheme, rng, scratch);
  particles.swap(scratch.next);
}

void resample_particles(std::span<Particle> particles, ResamplingScheme scheme,
                        rng::Rng& rng, ResampleScratch& scratch) {
  resample_into_next(particles, particles.size(), scheme, rng, scratch);
  std::copy(scratch.next.begin(), scratch.next.end(), particles.begin());
}

}  // namespace cdpf::filters
