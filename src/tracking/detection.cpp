#include "tracking/detection.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace cdpf::tracking {

LinearProbabilityModel::LinearProbabilityModel(double radius) : radius_(radius) {
  CDPF_CHECK_MSG(radius > 0.0, "linear probability radius must be positive");
}

double LinearProbabilityModel::probability(double distance) const {
  CDPF_CHECK_MSG(distance >= 0.0, "distance must be non-negative");
  return std::clamp(1.0 - distance / radius_, 0.0, 1.0);
}

}  // namespace cdpf::tracking
