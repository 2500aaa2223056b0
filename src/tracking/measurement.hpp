// Measurement models.
//
// The paper studies bearings-only tracking (Eq. 5): a sensor observes the
// angle toward the target corrupted by Gaussian noise. In the WSN each
// detecting node measures the bearing of the target *from its own position*
// (the paper writes the origin-relative form; per-node bearings are the only
// semantics consistent with many spatially distributed sensors). A range
// model is provided as an extension for the ablation benches.
#pragma once

#include "geom/vec2.hpp"
#include "random/rng.hpp"

namespace cdpf::tracking {

/// One sensor's bearing measurement: where the sensor is (as it reports
/// its own position) and the bearing it measured.
struct BearingObservation {
  geom::Vec2 sensor;
  double bearing_rad = 0.0;
};

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

/// Received-signal-strength model with log-distance path loss:
///   rss(d) = tx_power_dbm - 10 * eta * log10(max(d, d0) / d0) + n,
///   n ~ N(0, sigma_dbm^2).
/// The paper mentions RSS twice: as the adaptive source of initial particle
/// weights (§III-B) and implicitly through the energy model. The model also
/// supports inverting a measured RSS back to a distance estimate, which is
/// what the RSS-adaptive weighting uses.
class RssMeasurementModel {
 public:
  struct Params {
    double tx_power_dbm = 0.0;   // emitted power at the reference distance
    double path_loss_exponent = 2.5;  // eta: 2 free space .. 4 cluttered
    double reference_distance_m = 1.0;  // d0
    double sigma_dbm = 2.0;      // shadowing noise
  };

  explicit RssMeasurementModel(Params params);

  const Params& params() const { return params_; }

  /// Noise-free RSS of a target at `target` heard by `sensor` (dBm).
  double ideal(geom::Vec2 sensor, geom::Vec2 target) const;
  /// Noisy RSS draw.
  double measure(geom::Vec2 sensor, geom::Vec2 target, rng::Rng& rng) const;
  /// Likelihood of an RSS reading given a hypothesized target position.
  double log_likelihood(double rss_dbm, geom::Vec2 sensor, geom::Vec2 target) const;
  double likelihood(double rss_dbm, geom::Vec2 sensor, geom::Vec2 target) const;
  /// Distance estimate from a measured RSS (the inverse of ideal();
  /// clamped below at the reference distance).
  double invert_to_distance(double rss_dbm) const;

 private:
  Params params_;
  double log_norm_;
};

/// z = |t - s| + n, n ~ N(0, sigma^2): range measurement (extension).
class RangeMeasurementModel {
 public:
  explicit RangeMeasurementModel(double sigma_m);

  double sigma() const { return sigma_; }

  double ideal(geom::Vec2 sensor, geom::Vec2 target) const;
  double measure(geom::Vec2 sensor, geom::Vec2 target, rng::Rng& rng) const;
  double likelihood(double z, geom::Vec2 sensor, geom::Vec2 target) const;
  double log_likelihood(double z, geom::Vec2 sensor, geom::Vec2 target) const;

 private:
  double sigma_;
  double log_norm_;
};

}  // namespace cdpf::tracking
