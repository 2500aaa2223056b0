// Node deployment.
//
// The paper deploys 2,000-16,000 nodes uniformly at random over a
// 200 m x 200 m field (5-40 nodes / 100 m^2), the one model every
// reproduced experiment uses.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/shapes.hpp"
#include "geom/vec2.hpp"
#include "random/rng.hpp"

namespace cdpf::wsn {

/// `count` i.i.d. uniform positions inside `field`.
std::vector<geom::Vec2> deploy_uniform_random(std::size_t count, const geom::Aabb& field,
                                              rng::Rng& rng);

/// Convert the paper's density unit (nodes per 100 m^2) to a node count for
/// the given field.
std::size_t node_count_for_density(double nodes_per_100m2, const geom::Aabb& field);

}  // namespace cdpf::wsn
