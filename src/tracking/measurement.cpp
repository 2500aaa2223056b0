#include "tracking/measurement.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "geom/angles.hpp"
#include "support/check.hpp"

namespace cdpf::tracking {

namespace {
constexpr double kLogSqrt2Pi = 0.9189385332046727;  // log(sqrt(2*pi))
}

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

RssMeasurementModel::RssMeasurementModel(Params params)
    : params_(params), log_norm_(-std::log(params.sigma_dbm) - kLogSqrt2Pi) {
  CDPF_CHECK_MSG(params_.sigma_dbm > 0.0, "RSS sigma must be positive");
  CDPF_CHECK_MSG(params_.path_loss_exponent > 0.0,
                 "path-loss exponent must be positive");
  CDPF_CHECK_MSG(params_.reference_distance_m > 0.0,
                 "reference distance must be positive");
}

double RssMeasurementModel::ideal(geom::Vec2 sensor, geom::Vec2 target) const {
  const double d =
      std::max(geom::distance(sensor, target), params_.reference_distance_m);
  return params_.tx_power_dbm -
         10.0 * params_.path_loss_exponent *
             std::log10(d / params_.reference_distance_m);
}

double RssMeasurementModel::measure(geom::Vec2 sensor, geom::Vec2 target,
                                    rng::Rng& rng) const {
  return ideal(sensor, target) + rng.gaussian(0.0, params_.sigma_dbm);
}

double RssMeasurementModel::log_likelihood(double rss_dbm, geom::Vec2 sensor,
                                           geom::Vec2 target) const {
  const double u = (rss_dbm - ideal(sensor, target)) / params_.sigma_dbm;
  return log_norm_ - 0.5 * u * u;
}

double RssMeasurementModel::likelihood(double rss_dbm, geom::Vec2 sensor,
                                       geom::Vec2 target) const {
  return std::exp(log_likelihood(rss_dbm, sensor, target));
}

double RssMeasurementModel::invert_to_distance(double rss_dbm) const {
  const double exponent =
      (params_.tx_power_dbm - rss_dbm) / (10.0 * params_.path_loss_exponent);
  return params_.reference_distance_m * std::pow(10.0, std::max(exponent, 0.0));
}

RangeMeasurementModel::RangeMeasurementModel(double sigma_m)
    : sigma_(sigma_m), log_norm_(-std::log(sigma_m) - kLogSqrt2Pi) {
  CDPF_CHECK_MSG(sigma_m > 0.0, "range noise sigma must be positive");
}

double RangeMeasurementModel::ideal(geom::Vec2 sensor, geom::Vec2 target) const {
  return geom::distance(sensor, target);
}

double RangeMeasurementModel::measure(geom::Vec2 sensor, geom::Vec2 target,
                                      rng::Rng& rng) const {
  return ideal(sensor, target) + rng.gaussian(0.0, sigma_);
}

double RangeMeasurementModel::log_likelihood(double z, geom::Vec2 sensor,
                                             geom::Vec2 target) const {
  const double u = (z - ideal(sensor, target)) / sigma_;
  return log_norm_ - 0.5 * u * u;
}

double RangeMeasurementModel::likelihood(double z, geom::Vec2 sensor,
                                         geom::Vec2 target) const {
  return std::exp(log_likelihood(z, sensor, target));
}

}  // namespace cdpf::tracking
