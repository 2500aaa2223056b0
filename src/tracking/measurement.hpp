// Measurement models.
//
// The paper studies bearings-only tracking (Eq. 5): a sensor observes the
// angle toward the target corrupted by Gaussian noise. In the WSN each
// detecting node measures the bearing of the target *from its own position*
// (the paper writes the origin-relative form; per-node bearings are the only
// semantics consistent with many spatially distributed sensors).
#pragma once

#include "geom/vec2.hpp"
#include "random/rng.hpp"

namespace cdpf::tracking {

/// z = atan2(ty - sy, tx - sx) + n,  n ~ N(0, sigma^2), wrapped to (-pi, pi].
/// Its likelihood, normal in the wrapped residual and optionally inflated
/// by a spatial resolution, is scored by core::BearingEvidence.
class BearingMeasurementModel {
 public:
  explicit BearingMeasurementModel(double sigma_rad);

  double sigma() const { return sigma_; }

  /// Noise-free bearing of `target` seen from `sensor`.
  double ideal(geom::Vec2 sensor, geom::Vec2 target) const;

  /// Noisy measurement draw.
  double measure(geom::Vec2 sensor, geom::Vec2 target, rng::Rng& rng) const;

 private:
  double sigma_;
};

}  // namespace cdpf::tracking
