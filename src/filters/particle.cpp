#include "filters/particle.hpp"

#include "support/check.hpp"
#include "support/statistics.hpp"

namespace cdpf::filters {

double total_weight(std::span<const Particle> particles) {
  return support::weight_total(particles, [](const Particle& p) { return p.weight; });
}

void normalize_weights(std::span<Particle> particles, double total) {
  CDPF_CHECK_MSG(total > 0.0, "cannot normalize with a non-positive total weight");
  const double inv = 1.0 / total;
  for (Particle& p : particles) {
    p.weight *= inv;
  }
}

double effective_sample_size(std::span<const Particle> particles) {
  const double sum_sq = support::weight_total(
      particles, [](const Particle& p) { return p.weight * p.weight; });
  return sum_sq > 0.0 ? 1.0 / sum_sq : 0.0;
}

tracking::TargetState weighted_mean_state(std::span<const Particle> particles) {
  const double total = total_weight(particles);
  CDPF_CHECK_MSG(total > 0.0, "weighted mean needs a positive total weight");
  geom::Vec2 position{};
  geom::Vec2 velocity{};
  for (const Particle& p : particles) {
    position += p.state.position * p.weight;
    velocity += p.state.velocity * p.weight;
  }
  return {position / total, velocity / total};
}

}  // namespace cdpf::filters
