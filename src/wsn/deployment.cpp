#include "wsn/deployment.hpp"

#include <cmath>

#include "support/check.hpp"

namespace cdpf::wsn {

std::vector<geom::Vec2> deploy_uniform_random(std::size_t count, const geom::Aabb& field,
                                              rng::Rng& rng) {
  CDPF_CHECK_MSG(count > 0, "deployment needs at least one node");
  std::vector<geom::Vec2> positions;
  positions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    positions.push_back(
        {rng.uniform(field.lo.x, field.hi.x), rng.uniform(field.lo.y, field.hi.y)});
  }
  return positions;
}

std::size_t node_count_for_density(double nodes_per_100m2, const geom::Aabb& field) {
  CDPF_CHECK_MSG(nodes_per_100m2 > 0.0, "density must be positive");
  const double count = nodes_per_100m2 * field.area() / 100.0;
  return static_cast<std::size_t>(std::llround(count));
}

}  // namespace cdpf::wsn
