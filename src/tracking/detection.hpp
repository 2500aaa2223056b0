// Detection model.
//
// The paper adopts the *instant detection* model: "a sensor node detects a
// target when the target's trajectory intersects the node's sensing area"
// (wsn::Network::detecting_nodes answers it for a target position). This
// header holds the *linear probability model* of Jiang et al. (TDSS,
// IPDPS'08) that CDPF uses to decide which neighbors record a propagated
// particle.
#pragma once

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

  /// p(d) as defined above; clamped to [0, 1].
  double probability(double distance) const;

 private:
  double radius_;
};

}  // namespace cdpf::tracking
