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
double inverse_clamped_distance(double dx, double dy) {
  return 1.0 / std::max(std::sqrt(dx * dx + dy * dy), kMinContributionDistanceM);
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

void estimated_contributions(std::span<const geom::Vec2> positions,
                             geom::Vec2 predicted_position, std::vector<double>& out) {
  CDPF_CHECK_MSG(
      std::isfinite(predicted_position.x) && std::isfinite(predicted_position.y),
      "predicted position must be finite");
  out.resize(positions.size());
  if (positions.empty()) {
    return;
  }
  support::NeumaierSum inv_sum;  // D = sum_j 1/d_j
  for (std::size_t i = 0; i < positions.size(); ++i) {
    out[i] = inverse_clamped_distance(positions[i].x - predicted_position.x,
                                      positions[i].y - predicted_position.y);
    inv_sum.add(out[i]);
  }
  for (double& c : out) {
    c /= inv_sum.value();  // c_i = (1/d_i) / D
  }
  assert_distribution(out);
}

double own_contribution(geom::Vec2 self, std::span<const geom::Vec2> others,
                        geom::Vec2 predicted_position) {
  const double own_inv = inverse_clamped_distance(self.x - predicted_position.x,
                                                  self.y - predicted_position.y);
  support::NeumaierSum inv_sum;
  inv_sum.add(own_inv);
  for (const geom::Vec2 other : others) {
    inv_sum.add(inverse_clamped_distance(other.x - predicted_position.x,
                                         other.y - predicted_position.y));
  }
  const double contribution = own_inv / inv_sum.value();
  CDPF_ASSERT(std::isfinite(contribution) && contribution >= 0.0 &&
              contribution <= 1.0);
  return contribution;
}

}  // namespace cdpf::core
