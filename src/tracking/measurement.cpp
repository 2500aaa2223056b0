#include "tracking/measurement.hpp"

#include "geom/angles.hpp"
#include "support/check.hpp"

namespace cdpf::tracking {

BearingMeasurementModel::BearingMeasurementModel(double sigma_rad) : sigma_(sigma_rad) {
  CDPF_CHECK_MSG(sigma_rad > 0.0, "bearing noise sigma must be positive");
}

double BearingMeasurementModel::ideal(geom::Vec2 sensor, geom::Vec2 target) const {
  return (target - sensor).angle();
}

double BearingMeasurementModel::measure(geom::Vec2 sensor, geom::Vec2 target,
                                        rng::Rng& rng) const {
  return geom::wrap_angle(ideal(sensor, target) + rng.gaussian(0.0, sigma_));
}

}  // namespace cdpf::tracking
