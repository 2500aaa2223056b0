// Target state for the paper's dynamic system (Eq. 5): position and
// velocity x = (x, y, x', y')^T over a 2-D plane.
#pragma once

#include "geom/vec2.hpp"

namespace cdpf::tracking {

struct TargetState {
  geom::Vec2 position;
  geom::Vec2 velocity;

  constexpr bool operator==(const TargetState&) const = default;
};

}  // namespace cdpf::tracking
