#include "core/batch_kernels.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#include "support/kernel_clones.hpp"

namespace cdpf::core {

namespace {

/// Points scored per kernel call: their sums stay in L1 (4 x 2 KB) while
/// every record passes over them.
constexpr std::size_t kBlock = 256;

/// Running sums of Gaussian log-densities log N(r_k; 0, s_k), one lane per
/// point of a block, kept through the precisions t_k = 1 / s_k: the squared
/// residuals times their precisions add up as they come, and the precisions
/// multiply into one product whose log is taken once, in log_density(). A
/// product that leaves [2^-500, 2^500] is folded into `folded_log` and
/// restarted at 1; BearingBatchParams bounds every factor so that one
/// multiplication cannot overflow or underflow before the fold.
struct GaussianSums {
  std::array<double, kBlock> quadratic;  // sum of r_k^2 t_k
  std::array<double, kBlock> precision_product;
  std::array<double, kBlock> folded_log;  // logs of the products already folded
  std::array<double, kBlock> pairs;       // records scored (an exact count)

  double log_density(std::size_t i) const {
    return 0.5 * (folded_log[i] + std::log(precision_product[i])) -
           pairs[i] * kLogSqrt2Pi - 0.5 * quadratic[i];
  }
};

/// Fills `sums` for the n <= kBlock points (xs[i], ys[i]) from `records`:
/// every record, or with `gated` only those whose sensor lies within
/// sqrt(gate_sq) of the point. The record is the outer loop and the points
/// the inner one, so each point meets its records in their stored order and
/// the sums round exactly as a per-point loop would; a record a lane does
/// not hear adds +0.0 and multiplies by 1.0, which leaves its sums
/// unchanged (the quadratic sum is never -0.0).
///
/// The residual is the angle of the displacement d = p - sensor in the
/// frame of the measured bearing u = (cos z, sin z): atan2(u x d, u . d),
/// already in (-pi, pi]. Its sign is the opposite of
/// wrap(z - atan2(dy, dx)), which the square does not see. At d = (0, 0)
/// the bearing of the point is libm's atan2(0, 0) = 0, so d is taken as
/// (1, 0) there: the residual is then z itself, as the model has it.
CDPF_KERNEL_CLONES
void accumulate_records(std::span<const BearingEvidence::Record> records,
                        const BearingBatchParams& params, double gate_sq, bool gated,
                        const double* __restrict xs, const double* __restrict ys,
                        std::size_t n, GaussianSums& sums) {
  for (std::size_t i = 0; i < n; ++i) {
    sums.quadratic[i] = 0.0;
    sums.precision_product[i] = 1.0;
    sums.folded_log[i] = 0.0;
    sums.pairs[i] = 0.0;
  }
  const bool ungated = !gated;
  const double floor_sq = params.floor_sq;
  const double sigma0_sq = params.sigma0_sq;
  const double delta_sq = params.delta_sq;
  for (const BearingEvidence::Record& r : records) {
    const double sx = r.sensor.x;
    const double sy = r.sensor.y;
    const double ux = r.unit.x;
    const double uy = r.unit.y;
    std::uint64_t outside = 0;
    for (std::size_t i = 0; i < n; ++i) {  // cdpf-check: vectorized
      const double dx = xs[i] - sx;
      const double dy = ys[i] - sy;
      const double d2 = dx * dx + dy * dy;
      const bool heard = ungated | (d2 <= gate_sq);
      const bool at_sensor = (dx == 0.0) & (dy == 0.0);
      const double ex = dx + (at_sensor ? 1.0 : 0.0);
      const double residual = polynomial_atan2(ux * dy - uy * ex, ux * ex + uy * dy);
      const double m = std::min(std::max(d2, floor_sq), 1e300);
      const double precision = m / (sigma0_sq * m + delta_sq);
      sums.quadratic[i] += heard ? residual * residual * precision : 0.0;
      const double product = sums.precision_product[i] * (heard ? precision : 1.0);
      sums.precision_product[i] = product;
      sums.pairs[i] += heard ? 1.0 : 0.0;
      outside |= static_cast<std::uint64_t>((product < 0x1p-500) | (product > 0x1p500));
    }
    if (outside != 0) {
      for (std::size_t i = 0; i < n; ++i) {
        const double product = sums.precision_product[i];
        if (product < 0x1p-500 || product > 0x1p500) {
          sums.folded_log[i] += std::log(product);
          sums.precision_product[i] = 1.0;
        }
      }
    }
  }
}

}  // namespace

void BearingEvidence::log_likelihoods(std::span<const double> xs, std::span<const double> ys,
                                      std::span<double> out) const {
  CDPF_CHECK_MSG(xs.size() == ys.size() && xs.size() == out.size(),
                 "point coordinates and outputs must have one length");
  GaussianSums sums;
  for (std::size_t start = 0; start < xs.size(); start += kBlock) {
    const std::size_t n = std::min(kBlock, xs.size() - start);
    accumulate_records(records_, params_, comm_radius_sq_, /*gated=*/false,
                       xs.data() + start, ys.data() + start, n, sums);
    for (std::size_t i = 0; i < n; ++i) {
      out[start + i] = sums.log_density(i);
    }
  }
}

void BearingEvidence::host_factors(std::span<const double> xs, std::span<const double> ys,
                                   std::span<double> out) const {
  CDPF_CHECK_MSG(xs.size() == ys.size() && xs.size() == out.size(),
                 "point coordinates and outputs must have one length");
  const double reference = records_.empty() ? 0.0 : log_likelihood(centroid());
  GaussianSums sums;
  for (std::size_t start = 0; start < xs.size(); start += kBlock) {
    const std::size_t n = std::min(kBlock, xs.size() - start);
    accumulate_records(records_, params_, comm_radius_sq_, /*gated=*/true,
                       xs.data() + start, ys.data() + start, n, sums);
    for (std::size_t i = 0; i < n; ++i) {
      out[start + i] =
          sums.pairs[i] == 0.0
              ? std::exp(-kMaxLogWeightFactor)
              : std::exp(std::clamp(sums.log_density(i) - reference, -kMaxLogWeightFactor,
                                    kMaxLogWeightFactor));
    }
  }
}

}  // namespace cdpf::core
