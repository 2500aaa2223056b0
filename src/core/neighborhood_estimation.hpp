// Neighborhood estimation (paper §V) — the CDPF-NE improvement.
//
// Within the *estimation area* (Definition 1: the disk of sensing radius r_s
// around the predicted target position), the contribution of each node is
// set inversely proportional to its distance from the predicted position
// (Equation 4: c_i * d_i = const), normalized over the area (Definition 2):
//
//   c_i = 1 / (d_i * D),   D = sum_j 1 / d_j.
//
// These contributions replace the likelihood function, eliminating the
// measurement broadcast entirely. Theorem 1 (the contributions sum to one)
// and Theorem 2 (every node in the area computes identical values from the
// shared positions) hold by construction and are asserted by the tests.
#pragma once

#include <span>
#include <vector>

#include "geom/shapes.hpp"
#include "geom/vec2.hpp"

namespace cdpf::core {

/// Parameters of the neighborhood-estimation geometry. All lengths in
/// meters, matching the deployment's units.
struct NeighborhoodEstimationConfig {
  /// Radius of the estimation area (paper: the sensing radius r_s = 10 m).
  double sensing_radius = 10.0;
  /// Distances are clamped from below to avoid a node sitting exactly on
  /// the predicted position absorbing all contribution (1/d blows up).
  double min_distance_m = 0.1;
};

/// Definition 1: the estimation area around a predicted target position.
geom::Disk estimation_area(geom::Vec2 predicted_position,
                           const NeighborhoodEstimationConfig& config);

/// Definition 2 over an explicit set of node positions assumed to lie inside
/// the estimation area. Returns normalized contributions (same order as
/// `positions`); empty input yields an empty result.
std::vector<double> estimated_contributions(std::span<const geom::Vec2> positions,
                                            geom::Vec2 predicted_position,
                                            const NeighborhoodEstimationConfig& config);

/// Reuse-friendly variant writing into `out` (resized to positions.size());
/// allocation-free once `out` has the capacity — the per-iteration path of
/// CDPF-NE's weight assignment.
void estimated_contributions(std::span<const geom::Vec2> positions,
                             geom::Vec2 predicted_position,
                             const NeighborhoodEstimationConfig& config,
                             std::vector<double>& out);

/// The contribution c_0 of the node at `self`, with `others` being the other
/// node positions inside the estimation area (the normalization set is
/// {self} ∪ others). This is the per-node update path: each node only needs
/// its own contribution to update its particle weight (w <- w * c_0).
double own_contribution(geom::Vec2 self, std::span<const geom::Vec2> others,
                        geom::Vec2 predicted_position,
                        const NeighborhoodEstimationConfig& config);

}  // namespace cdpf::core
