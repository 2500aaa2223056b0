// The one bearing-evidence path every tracker scores through.
//
// All five trackers use the same measurement model for a bearing (paper
// Eq. 5); they differ only in WHO evaluates it. BearingEvidence holds one
// iteration's shared bearings (the (sensor position, bearing) records a
// sink or a host hears) and scores a batch of points in the two ways the
// trackers need:
//
//  * log_likelihoods(xs, ys, out) — the ungated sum over every record: the
//    sink filter (CPF/DPF) scores its whole cloud in one call, as do the
//    centralized benches.
//  * host_factors(xs, ys, out) — the node-hosted filters (CDPF, SDPF) score
//    all their hosts in one call: the sum over the records a host can hear
//    (d^2 <= r_c^2), taken relative to the log-likelihood at the sender
//    centroid and exponentiated under a clamp.
//
// A single point (the centroid reference, a test) is a batch of one.
//
// A (point, record) pair costs a few multiplies, three divisions (two of
// them inside a rational arctangent) and no libm call. The log-likelihood
// of a set of pairs is a sum of Gaussian log-densities over sensors,
//   sum_k log N(r_k; 0, s_k) = 0.5 log(prod_k t_k) - n log sqrt(2 pi)
//                              - 0.5 sum_k r_k^2 t_k,   t_k = 1 / s_k,
// so the normalizer's log is taken once per evaluation point, over the
// product of the precisions t_k, rather than once per pair. The variance s
// is the inflated noise of BearingBatchParams, whose precision takes one
// division and neither hypot() nor a sqrt. The residual r is the angle of
// the displacement d = p - sensor in the frame of the measured bearing:
// add() stores u = (cos z, sin z) once per record, and
// r = atan2(u x d, u . d) already lies in (-pi, pi], so no wrap is needed.
// polynomial_atan2() is a rational within 2 ulp of std::atan2. The gate
// shares dx, dy and d^2 with the kernel. The result differs from a
// per-pair libm evaluation only by rounding (tests/tracking_test.cpp keeps
// that evaluation as the oracle).
//
// Layout (batch_kernels.cpp): the points arrive as separate x and y arrays
// (PointBatch), and the kernel runs each record over all of them, so the
// inner loop is a straight-line pass over contiguous doubles that GCC
// vectorizes with no intrinsics: the arctangent's octant choice is a chain
// of selects over operands that are always computed, and a point that does
// not hear a record adds +0.0 and multiplies by 1.0. Each point still meets
// its records in their stored order with the same operations, so every
// result is bit-identical to a per-point loop. The kernel is cloned for
// AVX-512F, AVX2 and the baseline ISA and the loader picks one
// (target_clones). The file is compiled with -ffp-contract=off: C++
// defaults to -ffp-contract=fast, and a contracted multiply-add rounds once
// instead of twice, so with contraction off every clone rounds as the
// scalar code does, whatever FMA its target offers. The file's other two
// flags change no value: -fno-trapping-math only lets both arms of a
// select be computed (no trap handler exists to observe that), and
// -fvect-cost-model=dynamic only lets -O2 vectorize a loop with a run-time
// trip count. The `batch_kernels_vectorized` lint gate checks that all
// three clones vectorize the record loop and that the object holds no
// fused multiply-add.
//
// Callers evaluate the evidence only as often as its inputs differ: SDPF's
// particles sit exactly on their host's position ("motes as particles"), so
// it scores each host once and scales all of that host's particles by one
// factor.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "filters/particle.hpp"
#include "geom/vec2.hpp"
#include "support/check.hpp"
#include "wsn/network.hpp"

namespace cdpf::core {

/// log(sqrt(2*pi)), the Gaussian normalization constant in the log domain.
inline constexpr double kLogSqrt2Pi = 0.9189385332046727;

/// Clamp for log-domain weight factors: keeps exp() finite even when a
/// sensor lies almost on top of the target and its bearing residual makes
/// the log-likelihood difference astronomically large in either direction.
inline constexpr double kMaxLogWeightFactor = 600.0;

/// Position-quantization length used for likelihood inflation by the
/// node-hosted filters: half the mean node spacing of the deployment
/// (0.5 / sqrt(node density per m^2)).
inline double quantization_length(const wsn::Network& network) {
  const double density_per_m2 =
      static_cast<double>(network.size()) / network.config().field.area();
  return density_per_m2 > 0.0 ? 0.5 / std::sqrt(density_per_m2) : 0.0;
}

/// Spatial resolution (m) of the sink-side particle cloud (CPF and DPF)
/// folded into the likelihood as extra angular noise delta/d per sensor.
/// This keeps sensors that sit almost on top of the target (d -> 0, where
/// any finite particle cloud is too coarse for the bearing geometry) from
/// annihilating every particle's weight.
inline constexpr double kCloudResolutionM = 0.5;

/// Precomputed squared parameters of the quantization-inflated bearing
/// likelihood. The base noise sigma0 (rad) is inflated by the angle a
/// spatial resolution delta (m) subtends at distance d,
///   sigma_eff = hypot(sigma0, delta / max(d, floor)),
/// evaluated as a variance:
///   sigma_eff^2 = sigma0^2 + delta^2 / max(d^2, floor^2)
/// — the same quantity (squaring is monotone, so the max commutes) without
/// the hypot or the sqrt of d^2. The floor is delta, or 1e-3 m when delta
/// is 0. BearingEvidence evaluates the inverse, the precision
///   1 / sigma_eff^2 = m / (sigma0^2 m + delta^2),  m = max(d^2, floor^2),
/// with one division, and caps m at 1e300 (beyond 1e150 m the inflation
/// term is below 1e-180 either way). The bounds below keep
/// sigma0^2 m + delta^2 finite and nonzero (a nonzero delta below 1e-100
/// is rejected: its square could underflow to 0 and make the precision at
/// d = 0 a 0 / 0), and every precision inside
/// [1 / (sigma0^2 + 1), 1 / sigma0^2], within [2^-20, 2^399]: one factor
/// cannot take a product of precisions kept within [2^-500, 2^500] out of
/// the normal double range.
struct BearingBatchParams {
  double sigma0_sq = 0.0;  // base bearing-noise variance
  double delta_sq = 0.0;   // quantization length, squared
  double floor_sq = 0.0;   // distance-squared floor of the inflation term

  BearingBatchParams(double sigma0, double delta) {
    CDPF_CHECK_MSG(sigma0 >= 1e-60 && sigma0 <= 1e3,
                   "bearing sigma must lie in [1e-60, 1e3] rad");
    CDPF_CHECK_MSG(delta == 0.0 || (delta >= 1e-100 && delta <= 1e60),
                   "quantization length must be 0 or lie in [1e-100, 1e60] m");
    sigma0_sq = sigma0 * sigma0;
    delta_sq = delta * delta;
    const double floor = delta > 0.0 ? delta : 1e-3;
    floor_sq = floor * floor;
  }
};

/// atan2(y, x) without a libm call: within 2 ulp of std::atan2 for finite
/// arguments, with libm's signed-zero results (atan2(+-0, +0) = +-0,
/// atan2(+-0, -0) = +-pi); a NaN argument gives NaN. An infinite argument
/// gives libm's angle when the other one is finite, and NaN when both are
/// infinite.
///
/// The angle of (|x|, |y|) is reduced to an argument w with |w| <= 0.66,
/// where Cephes' rational atan(w) = w + w^3 P(w^2) / Q(w^2) is fitted:
///   atan(|y| / |x|)                          when |y| <= 0.66 |x|,
///   pi/2 + atan(-|x| / |y|)                  when |x| < 0.66 |y|,
///   pi/4 + atan((|y| - |x|) / (|y| + |x|))   otherwise,
/// where |y| - |x| is exact (Sterbenz: the two are within a factor 2). The
/// left half-plane (x < 0, including x = -0) reflects the angle to
/// pi - angle, and y's sign is copied last. Each base angle is held as a
/// hi + lo pair so that the final sum rounds once.
///
/// Every operand of every reduction is computed, and each choice is a
/// select between computed values, so the function has no branch and
/// BearingEvidence's batch kernel vectorizes it (see batch_kernels.cpp).
// Total function: every pair of doubles has a defined result, so there is
// no precondition to check.
// cdpf-lint: allow(entry-check)
inline double polynomial_atan2(double y, double x) {
  constexpr double kQuarterPiHi = 0.78539816339744828;
  constexpr double kQuarterPiLo = 3.061616997868383e-17;
  constexpr double kHalfPiHi = 1.5707963267948966;
  constexpr double kHalfPiLo = 6.123233995736766e-17;
  constexpr double kThreeQuarterPiHi = 2.3561944901923448;
  constexpr double kThreeQuarterPiLo = 9.184850993605148e-17;
  constexpr double kPiHi = 3.1415926535897931;
  constexpr double kPiLo = 1.2246467991473532e-16;
  const double ax = std::abs(x);
  const double ay = std::abs(y);
  const double difference = ay - ax;
  const double sum = ay + ax;
  const bool low = ay <= 0.66 * ax;
  const bool high = ax < 0.66 * ay;
  const double num = high ? -ax : (low ? ay : difference);
  const double den = high ? ay : (low ? ax : sum);
  // (0, 0) is the one zero denominator; its angle is 0, as libm's is.
  const double w = num / (num == 0.0 ? 1.0 : den);
  const double z = w * w;
  const double p =
      ((((-8.750608600031904122785e-1 * z - 1.615753718733365076637e1) * z -
         7.500855792314704667340e1) * z - 1.228866684490136173410e2) * z -
       6.485021904942025371773e1);
  const double q =
      (((((z + 2.485846490142306297962e1) * z + 1.650270098316988542046e2) * z +
         4.328810604912902668951e2) * z + 4.853903996359136964868e2) * z +
       1.945506571482613964425e2);
  const double atan_w = w + w * z * p / q;
  // std::signbit(x), in a form GCC vectorizes.
  const bool left = std::copysign(1.0, x) < 0.0;
  const double base_hi = high ? kHalfPiHi
                              : (low ? (left ? kPiHi : 0.0)
                                     : (left ? kThreeQuarterPiHi : kQuarterPiHi));
  const double base_lo = high ? kHalfPiLo
                              : (low ? (left ? kPiLo : 0.0)
                                     : (left ? kThreeQuarterPiLo : kQuarterPiLo));
  const double angle = base_hi + ((left ? -atan_w : atan_w) + base_lo);
  return std::copysign(angle, y);
}

/// Points to score, as the separate x and y arrays BearingEvidence reads,
/// and one score slot per point. Trackers keep one as a member, so
/// steady-state iterations reuse its capacity.
struct PointBatch {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<double> scores;

  void clear() {
    x.clear();
    y.clear();
    scores.clear();
  }
  void add(geom::Vec2 p) {
    x.push_back(p.x);
    y.push_back(p.y);
    scores.push_back(0.0);
  }
  /// Replace the points with the positions of `particles`, in their order.
  void assign_positions(std::span<const filters::Particle> particles) {
    clear();
    for (const filters::Particle& p : particles) {
      add(p.state.position);
    }
  }
};

/// One iteration's shared bearings and the two ways to score them. Refill
/// it each iteration with clear() and add(); reserve() once up front keeps
/// steady-state iterations allocation-free.
class BearingEvidence {
 public:
  /// One shared bearing: the sensor's position and the direction
  /// u = (cos z, sin z) of the bearing z it measured, computed once in add()
  /// for the residual.
  struct Record {
    geom::Vec2 sensor;
    geom::Vec2 unit;
  };

  /// `sigma0` and `delta` parameterize the inflated kernel (see
  /// BearingBatchParams); `comm_radius` is the earshot gate of
  /// host_factors() (log_likelihoods() ignores it).
  BearingEvidence(double sigma0, double delta,
                  double comm_radius = std::numeric_limits<double>::infinity())
      : params_(sigma0, delta), comm_radius_sq_(comm_radius * comm_radius) {}

  void reserve(std::size_t records) { records_.reserve(records); }
  void clear() { records_.clear(); }
  void add(geom::Vec2 sensor, double bearing_rad) {
    records_.push_back({sensor, {std::cos(bearing_rad), std::sin(bearing_rad)}});
  }

  bool empty() const { return records_.empty(); }
  std::span<const Record> records() const { return records_; }

  /// Mean sensor position of the records. Requires at least one record.
  geom::Vec2 centroid() const {
    CDPF_CHECK_MSG(!records_.empty(), "centroid of empty bearing evidence");
    geom::Vec2 sum{};
    for (const Record& r : records_) {
      sum += r.sensor;
    }
    return sum / static_cast<double>(records_.size());
  }

  /// out[i] = the sum of every record's log-likelihood at the point
  /// (xs[i], ys[i]), with no earshot gate. The three spans have one length.
  void log_likelihoods(std::span<const double> xs, std::span<const double> ys,
                       std::span<double> out) const;

  /// out[i] = the weight factor of a particle hosted at (xs[i], ys[i]):
  ///   exp(clamp(sum_heard - log_likelihood(centroid()), +-kMaxLogWeightFactor)),
  /// where sum_heard covers the records within the comm radius of the host.
  /// The centroid reference is common to every host, so it cancels at the
  /// next normalization; it only keeps the product over dozens of sensors
  /// inside double range for plausible hosts, and, being close to the
  /// target, keeps the clamp from erasing their ordering. A host out of
  /// earshot of every sender while the target is detected must be more than
  /// r_c - r_s from the target, where the bearing likelihood is negligible
  /// anyway: it gets exp(-kMaxLogWeightFactor) rather than a "no
  /// information" sanctuary that would keep its weight while plausible
  /// hosts are renormalized (the paper's rule: drop on ~zero density). The
  /// reference is computed once per call. The three spans have one length.
  void host_factors(std::span<const double> xs, std::span<const double> ys,
                    std::span<double> out) const;

  /// log_likelihoods() of the single point `p`.
  double log_likelihood(geom::Vec2 p) const {
    double out = 0.0;
    log_likelihoods({&p.x, 1}, {&p.y, 1}, {&out, 1});
    return out;
  }

  /// host_factors() of the single host position `host`.
  double host_factor(geom::Vec2 host) const {
    double out = 0.0;
    host_factors({&host.x, 1}, {&host.y, 1}, {&out, 1});
    return out;
  }

 private:
  BearingBatchParams params_;
  // Squared so the gate shares d^2 with the kernel: `d <= r_c` and
  // `d^2 <= r_c^2` agree for every representable distance.
  double comm_radius_sq_;
  std::vector<Record> records_;
};

}  // namespace cdpf::core
