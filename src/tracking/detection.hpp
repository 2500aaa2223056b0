// Detection model.
//
// The paper adopts the *instant detection* model: "a sensor node detects a
// target when the target's trajectory intersects the node's sensing area"
// (wsn::Network::detecting_nodes answers it for a target position). This
// header holds the *linear probability model* of Jiang et al. (TDSS,
// IPDPS'08) that CDPF uses to decide which neighbors record a propagated
// particle.
#pragma once

#include <algorithm>

#include "support/check.hpp"

namespace cdpf::tracking {

/// Linear probability model: the probability that a node participates in
/// (detects / records particles for) an event at distance d from it is
///   p(d) = max(0, 1 - d / r).
/// CDPF uses it to select recorders in the predicted area and to split
/// particle weights among them (Section III-B of the paper).
class LinearProbabilityModel {
 public:
  explicit LinearProbabilityModel(double radius);

  double radius() const { return radius_; }

  /// p(d) as defined above; clamped to [0, 1]. Requires d >= 0. Inline:
  /// CDPF's recorder gate evaluates it for every candidate of every host.
  double probability(double distance) const {
    CDPF_CHECK_MSG(distance >= 0.0, "distance must be non-negative");
    return probability_unchecked(distance);
  }

  /// probability() without its precondition, for a batch loop that
  /// evaluates every candidate and gates the result itself (a check that
  /// may throw keeps a loop from vectorizing): a negative distance gives 1
  /// and a NaN one NaN, which no `p > 0` gate accepts.
  double probability_unchecked(double distance) const {
    return std::clamp(1.0 - distance / radius_, 0.0, 1.0);
  }

 private:
  double radius_;
};

}  // namespace cdpf::tracking
