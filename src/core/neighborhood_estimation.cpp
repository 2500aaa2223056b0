#include "core/neighborhood_estimation.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/statistics.hpp"

namespace cdpf::core {

namespace {

// One arithmetic for every contribution path (estimated_contributions,
// own_contribution): Theorem 2 — every node computes identical
// values — is asserted as exact equality by the tests, so the paths must
// not merely agree mathematically but share the same operations. The
// distance comes from sqrt(dx^2 + dy^2) rather than hypot: an ulp-level
// accuracy trade the clamp and the normalization are indifferent to, and
// the form auto-vectorizes.
double inverse_clamped_distance(double dx, double dy, double min_distance) {
  return 1.0 / std::max(std::sqrt(dx * dx + dy * dy), min_distance);
}

// CDPF-NE invariant: the estimated contributions form a probability
// distribution over the area nodes — each in [0, 1] and summing to one —
// otherwise the weight assignment silently injects or removes mass.
void assert_distribution([[maybe_unused]] const std::vector<double>& out) {
  CDPF_ASSERT([&] {
    support::NeumaierSum check;
    for (const double c : out) {
      if (!(std::isfinite(c) && c >= 0.0 && c <= 1.0)) {
        return false;
      }
      check.add(c);
    }
    return std::abs(check.value() - 1.0) <= 1e-9;
  }());
}

}  // namespace

geom::Disk estimation_area(geom::Vec2 predicted_position,
                           const NeighborhoodEstimationConfig& config) {
  CDPF_CHECK_MSG(config.sensing_radius > 0.0, "sensing radius must be positive");
  return {predicted_position, config.sensing_radius};
}

std::vector<double> estimated_contributions(std::span<const geom::Vec2> positions,
                                            geom::Vec2 predicted_position,
                                            const NeighborhoodEstimationConfig& config) {
  CDPF_CHECK_MSG(config.min_distance_m > 0.0, "min distance clamp must be positive");
  std::vector<double> contributions;
  estimated_contributions(positions, predicted_position, config, contributions);
  return contributions;
}

void estimated_contributions(std::span<const geom::Vec2> positions,
                             geom::Vec2 predicted_position,
                             const NeighborhoodEstimationConfig& config,
                             std::vector<double>& out) {
  CDPF_CHECK_MSG(config.min_distance_m > 0.0, "min distance clamp must be positive");
  out.resize(positions.size());
  if (positions.empty()) {
    return;
  }
  support::NeumaierSum inv_sum;  // D = sum_j 1/d_j
  for (std::size_t i = 0; i < positions.size(); ++i) {
    out[i] = inverse_clamped_distance(positions[i].x - predicted_position.x,
                                      positions[i].y - predicted_position.y,
                                      config.min_distance_m);
    inv_sum.add(out[i]);
  }
  for (double& c : out) {
    c /= inv_sum.value();  // c_i = (1/d_i) / D
  }
  assert_distribution(out);
}

double own_contribution(geom::Vec2 self, std::span<const geom::Vec2> others,
                        geom::Vec2 predicted_position,
                        const NeighborhoodEstimationConfig& config) {
  CDPF_CHECK_MSG(config.min_distance_m > 0.0, "min distance clamp must be positive");
  const double own_inv =
      inverse_clamped_distance(self.x - predicted_position.x,
                               self.y - predicted_position.y, config.min_distance_m);
  support::NeumaierSum inv_sum;
  inv_sum.add(own_inv);
  for (const geom::Vec2 other : others) {
    inv_sum.add(inverse_clamped_distance(other.x - predicted_position.x,
                                         other.y - predicted_position.y,
                                         config.min_distance_m));
  }
  const double contribution = own_inv / inv_sum.value();
  CDPF_ASSERT(std::isfinite(contribution) && contribution >= 0.0 &&
              contribution <= 1.0);
  return contribution;
}

}  // namespace cdpf::core
