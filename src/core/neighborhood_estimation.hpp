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

#include "geom/vec2.hpp"

namespace cdpf::core {

/// Distances to the predicted position are clamped from below (m) so a node
/// sitting exactly on it cannot absorb all contribution (1/d blows up).
inline constexpr double kMinContributionDistanceM = 0.1;

/// Definition 2 over an explicit set of node positions assumed to lie inside
/// the estimation area (Definition 1: the disk of sensing radius r_s around
/// the predicted target position). Writes the normalized contributions into
/// `out` (resized to positions.size(), same order as `positions`; empty
/// input yields an empty result); allocation-free once `out` has the
/// capacity — the per-iteration path of CDPF-NE's weight assignment.
void estimated_contributions(std::span<const geom::Vec2> positions,
                             geom::Vec2 predicted_position, std::vector<double>& out);

/// The contribution c_0 of the node at `self`, with `others` being the other
/// node positions inside the estimation area (the normalization set is
/// {self} ∪ others). This is the per-node update path: each node only needs
/// its own contribution to update its particle weight (w <- w * c_0).
double own_contribution(geom::Vec2 self, std::span<const geom::Vec2> others,
                        geom::Vec2 predicted_position);

}  // namespace cdpf::core
