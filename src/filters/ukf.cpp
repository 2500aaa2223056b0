#include "filters/ukf.hpp"

#include <array>
#include <cmath>

#include "geom/angles.hpp"
#include "support/check.hpp"

namespace cdpf::filters {

namespace {
constexpr std::size_t kN = 4;                  // state dimension
constexpr std::size_t kNumSigma = 2 * kN + 1;  // 9 sigma points
}  // namespace

BearingsOnlyUkf::BearingsOnlyUkf(tracking::ConstantVelocityModel model,
                                 double bearing_sigma,
                                 const tracking::TargetState& initial_mean,
                                 const linalg::Mat<4, 4>& initial_covariance,
                                 UkfParams params)
    : model_(model),
      variance_(bearing_sigma * bearing_sigma),
      params_(params),
      x_(initial_mean.to_vector()),
      p_(initial_covariance) {
  CDPF_CHECK_MSG(bearing_sigma > 0.0, "bearing sigma must be positive");
  CDPF_CHECK_MSG(params_.alpha > 0.0, "UKF alpha must be positive");
  lambda_ = params_.alpha * params_.alpha * (static_cast<double>(kN) + params_.kappa) -
            static_cast<double>(kN);
}

tracking::TargetState BearingsOnlyUkf::estimate() const {
  return tracking::TargetState::from_vector(x_);
}

std::array<linalg::Vec<4>, 9> BearingsOnlyUkf::sigma_points() const {
  const double scale = static_cast<double>(kN) + lambda_;
  // Rank-one downdates can leave P (numerically) indefinite on long sparse
  // runs; recondition with a growing ridge until the factorization holds.
  linalg::Mat<4, 4> sqrt_p;
  linalg::Mat<4, 4> conditioned = p_ * scale;
  double ridge = 1e-9;
  for (;;) {
    try {
      sqrt_p = linalg::cholesky(conditioned);
      break;
    } catch (const Error&) {
      conditioned = conditioned + linalg::Mat<4, 4>::identity() * ridge;
      ridge *= 10.0;
      CDPF_CHECK_MSG(ridge < 1e12, "UKF covariance is unrecoverable");
    }
  }
  std::array<linalg::Vec<4>, kNumSigma> points;
  points[0] = x_;
  for (std::size_t i = 0; i < kN; ++i) {
    linalg::Vec<4> column;
    for (std::size_t r = 0; r < kN; ++r) {
      column[r] = sqrt_p(r, i);
    }
    points[1 + i] = x_ + column;
    points[1 + kN + i] = x_ - column;
  }
  return points;
}

void BearingsOnlyUkf::predict() {
  // The CV model is linear, so the unscented prediction reduces to the
  // exact KF form: x <- Phi x, P <- Phi P Phi^T + Q.
  x_ = model_.phi() * x_;
  p_ = linalg::symmetrized(model_.phi() * p_ * model_.phi().transposed() +
                           model_.process_noise_covariance());
}

void BearingsOnlyUkf::update(
    std::span<const tracking::BearingObservation> observations) {
  const double n = static_cast<double>(kN);
  const double wm0 = lambda_ / (n + lambda_);
  const double wc0 =
      wm0 + (1.0 - params_.alpha * params_.alpha + params_.beta);
  const double wi = 1.0 / (2.0 * (n + lambda_));

  for (const tracking::BearingObservation& obs : observations) {
    // Near-field guard: a sensor closer to the estimate than the sigma-
    // point spread sees bearings that flip by ~pi across the sigma cloud,
    // which wrecks the unscented statistics. Far-field sensors carry the
    // same directional information without the pathology.
    const double spread = std::sqrt(std::max(p_(0, 0) + p_(1, 1), 0.0));
    const double sensor_distance =
        std::hypot(x_[0] - obs.sensor.x, x_[1] - obs.sensor.y);
    if (sensor_distance < std::max(2.0, 2.0 * spread)) {
      continue;
    }
    const auto points = sigma_points();

    // Transform the sigma points through the bearing function.
    std::array<double, kNumSigma> z{};
    bool degenerate = false;
    for (std::size_t i = 0; i < kNumSigma; ++i) {
      const double dx = points[i][0] - obs.sensor.x;
      const double dy = points[i][1] - obs.sensor.y;
      if (dx * dx + dy * dy < 1e-12) {
        degenerate = true;
        break;
      }
      z[i] = std::atan2(dy, dx);
    }
    if (degenerate) {
      continue;  // sensor coincides with a sigma point: skip the update
    }

    // Circular mean of the predicted bearings (weighted).
    double sx = 0.0, sy = 0.0;
    sx += wm0 * std::cos(z[0]);
    sy += wm0 * std::sin(z[0]);
    for (std::size_t i = 1; i < kNumSigma; ++i) {
      sx += wi * std::cos(z[i]);
      sy += wi * std::sin(z[i]);
    }
    const double z_mean = std::atan2(sy, sx);

    // Innovation covariance S and state-measurement cross covariance.
    double s = variance_;
    linalg::Vec<4> cross;
    auto accumulate = [&](std::size_t i, double weight) {
      const double dz = geom::angle_difference(z[i], z_mean);
      s += weight * dz * dz;
      const linalg::Vec<4> dx_state = points[i] - x_;
      for (std::size_t r = 0; r < kN; ++r) {
        cross[r] += weight * dx_state[r] * dz;
      }
    };
    accumulate(0, wc0);
    for (std::size_t i = 1; i < kNumSigma; ++i) {
      accumulate(i, wi);
    }

    // Scalar Kalman update with the wrapped innovation, guarded by the
    // standard 3-sigma gate: an observation far outside the predicted
    // innovation spread is more likely a geometry pathology (near-field
    // bearing flip) than information, and one bad gain can destabilize the
    // whole filter.
    const double innovation = geom::angle_difference(obs.bearing_rad, z_mean);
    if (innovation * innovation > 9.0 * s) {
      continue;
    }
    const linalg::Vec<4> gain = cross * (1.0 / s);
    x_ = x_ + gain * innovation;
    p_ = linalg::symmetrized(p_ - gain * gain.transposed() * s);
    // Keep P positive definite under accumulated round-off.
    for (std::size_t r = 0; r < kN; ++r) {
      p_(r, r) = std::max(p_(r, r), 1e-9);
    }
  }
}

}  // namespace cdpf::filters
