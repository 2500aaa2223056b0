#include "tracking/detection.hpp"

#include "support/check.hpp"

namespace cdpf::tracking {

LinearProbabilityModel::LinearProbabilityModel(double radius) : radius_(radius) {
  CDPF_CHECK_MSG(radius > 0.0, "linear probability radius must be positive");
}

}  // namespace cdpf::tracking
