// The one bearing-evidence path every tracker scores through.
//
// All six trackers use the same measurement model for a bearing (paper
// Eq. 5); they differ only in WHO evaluates it. BearingEvidence holds one
// iteration's shared bearings (the (sensor position, bearing) records a
// sink, a cluster head or a host hears) and scores a point in the two ways
// the trackers need:
//
//  * log_likelihood(p) — the ungated sum over every record: the sink or
//    head filters (CPF/DPF, GMM-DPF) and the centralized benches.
//  * host_factor(host) — the node-hosted filters (CDPF, SDPF): the sum over
//    the records a host can hear (d^2 <= r_c^2), taken relative to the
//    log-likelihood at the sender centroid and exponentiated under a clamp.
//
// Each pair goes through bearing_pair_log_likelihood(), in variance form:
// the inflated noise
//   sigma^2 = sigma0^2 + delta^2 / max(d^2, floor^2)
// needs neither hypot() nor a sqrt, so a pair costs one atan2 and one log.
// The kernel takes precomputed displacement components, so the gated loop
// computes dx, dy and d^2 once and shares them between the comm-range gate
// and the kernel. The residual is wrapped by geom::wrap_angle, which is
// bitwise equal to std::remainder by 2pi but skips the libm call for
// |x| < 3pi, the only residuals two bearings in (-pi, pi] can produce.
//
// Callers evaluate the evidence only as often as its inputs differ: SDPF's
// particles sit exactly on their host's position ("motes as particles"), so
// it scores each host once and scales all of that host's particles by one
// factor.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "geom/angles.hpp"
#include "geom/vec2.hpp"
#include "support/check.hpp"
#include "tracking/measurement.hpp"
#include "wsn/network.hpp"

namespace cdpf::core {

/// log(sqrt(2*pi)), the Gaussian normalization constant in the log domain.
inline constexpr double kLogSqrt2Pi = 0.9189385332046727;

/// Clamp for log-domain weight factors: keeps exp() finite even when a
/// sensor lies almost on top of the target and its bearing residual makes
/// the log-likelihood difference astronomically large in either direction.
inline constexpr double kMaxLogWeightFactor = 600.0;

/// Position-quantization length used for likelihood inflation by the
/// node-hosted filters: the configured value when non-negative, else half
/// the mean node spacing of the deployment.
inline double quantization_length(double configured, const wsn::Network& network) {
  CDPF_CHECK_MSG(std::isfinite(configured), "quantization length must be finite");
  if (configured >= 0.0) {
    return configured;
  }
  const double density_per_m2 =
      static_cast<double>(network.size()) / network.config().field.area();
  return density_per_m2 > 0.0 ? 0.5 / std::sqrt(density_per_m2) : 0.0;
}

/// Precomputed squared parameters of the quantization-inflated bearing
/// likelihood. The base noise sigma0 (rad) is inflated by the angle a
/// spatial resolution delta (m) subtends at distance d,
///   sigma_eff = hypot(sigma0, delta / max(d, floor)),
/// evaluated as a variance:
///   sigma_eff^2 = sigma0^2 + delta^2 / max(d^2, floor^2)
/// — the same quantity (squaring is monotone, so the max commutes) without
/// the hypot or the sqrt of d^2. The floor is delta, or 1e-3 m when delta
/// is 0.
struct BearingBatchParams {
  double sigma0_sq = 0.0;  // base bearing-noise variance
  double delta_sq = 0.0;   // quantization length, squared
  double floor_sq = 0.0;   // distance-squared floor of the inflation term

  BearingBatchParams(double sigma0, double delta) {
    CDPF_CHECK_MSG(sigma0 > 0.0, "bearing sigma must be positive");
    CDPF_CHECK_MSG(delta >= 0.0, "quantization length must be non-negative");
    sigma0_sq = sigma0 * sigma0;
    delta_sq = delta * delta;
    const double floor = delta > 0.0 ? delta : 1e-3;
    floor_sq = floor * floor;
  }
};

/// Log-likelihood of one bearing measurement `z` for an evaluation point
/// displaced (dx, dy) = p - sensor from the measuring sensor, with
/// d2 = dx*dx + dy*dy.
inline double bearing_pair_log_likelihood(double z, double dx, double dy, double d2,
                                          const BearingBatchParams& params) {
  // Debug-only: the kernel runs millions of times per iteration, so the
  // precondition compiles out of release builds (NDEBUG).
  CDPF_ASSERT(d2 >= 0.0);
  const double residual = geom::angle_difference(z, std::atan2(dy, dx));
  const double sigma_sq =
      params.sigma0_sq + params.delta_sq / std::max(d2, params.floor_sq);
  return -0.5 * std::log(sigma_sq) - kLogSqrt2Pi -
         0.5 * residual * residual / sigma_sq;
}

/// One iteration's shared bearings and the two ways to score them. Refill
/// it each iteration with clear() and add(); reserve() once up front keeps
/// steady-state iterations allocation-free.
class BearingEvidence {
 public:
  /// `sigma0` and `delta` parameterize the inflated kernel (see
  /// BearingBatchParams); `comm_radius` is the earshot gate of
  /// host_factor() (log_likelihood() ignores it).
  BearingEvidence(double sigma0, double delta,
                  double comm_radius = std::numeric_limits<double>::infinity())
      : params_(sigma0, delta), comm_radius_sq_(comm_radius * comm_radius) {}

  void reserve(std::size_t records) { records_.reserve(records); }
  void clear() {
    records_.clear();
    reference_valid_ = false;
  }
  void add(geom::Vec2 sensor, double bearing_rad) {
    records_.push_back({sensor, bearing_rad});
    reference_valid_ = false;
  }

  bool empty() const { return records_.empty(); }
  std::span<const tracking::BearingObservation> records() const { return records_; }

  /// Mean sensor position of the records. Requires at least one record.
  geom::Vec2 centroid() const {
    CDPF_CHECK_MSG(!records_.empty(), "centroid of empty bearing evidence");
    geom::Vec2 sum{};
    for (const tracking::BearingObservation& r : records_) {
      sum += r.sensor;
    }
    return sum / static_cast<double>(records_.size());
  }

  /// Sum of every record's log-likelihood at `p`, with no earshot gate.
  double log_likelihood(geom::Vec2 p) const {
    double sum = 0.0;
    for (const tracking::BearingObservation& r : records_) {
      const double dx = p.x - r.sensor.x;
      const double dy = p.y - r.sensor.y;
      sum += bearing_pair_log_likelihood(r.bearing_rad, dx, dy, dx * dx + dy * dy,
                                         params_);
    }
    return sum;
  }

  /// Weight factor of a particle hosted at `host`:
  ///   exp(clamp(sum_heard - log_likelihood(centroid()), +-kMaxLogWeightFactor)),
  /// where sum_heard covers the records within the comm radius of `host`.
  /// The centroid reference is common to every host, so it cancels at the
  /// next normalization; it only keeps the product over dozens of sensors
  /// inside double range for plausible hosts, and, being close to the
  /// target, keeps the clamp from erasing their ordering. A host out of
  /// earshot of every sender while the target is detected must be more than
  /// r_c - r_s from the target, where the bearing likelihood is negligible
  /// anyway: it gets exp(-kMaxLogWeightFactor) rather than a "no
  /// information" sanctuary that would keep its weight while plausible
  /// hosts are renormalized (the paper's rule: drop on ~zero density).
  /// The reference is computed on the first call after the records change
  /// and cached (not safe for concurrent first calls).
  double host_factor(geom::Vec2 host) const {
    double sum = 0.0;
    bool heard_any = false;
    for (const tracking::BearingObservation& r : records_) {
      const double dx = host.x - r.sensor.x;
      const double dy = host.y - r.sensor.y;
      const double d2 = dx * dx + dy * dy;
      if (d2 <= comm_radius_sq_) {
        sum += bearing_pair_log_likelihood(r.bearing_rad, dx, dy, d2, params_);
        heard_any = true;
      }
    }
    if (!heard_any) {
      return std::exp(-kMaxLogWeightFactor);
    }
    if (!reference_valid_) {
      reference_log_likelihood_ = log_likelihood(centroid());
      reference_valid_ = true;
    }
    return std::exp(std::clamp(sum - reference_log_likelihood_, -kMaxLogWeightFactor,
                               kMaxLogWeightFactor));
  }

 private:
  BearingBatchParams params_;
  // Squared so the gate shares d^2 with the kernel: `d <= r_c` and
  // `d^2 <= r_c^2` agree for every representable distance.
  double comm_radius_sq_;
  std::vector<tracking::BearingObservation> records_;
  mutable double reference_log_likelihood_ = 0.0;
  mutable bool reference_valid_ = false;
};

}  // namespace cdpf::core
