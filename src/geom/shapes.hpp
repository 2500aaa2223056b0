// Axis-aligned rectangles: the deployment field.
#pragma once

#include <algorithm>

#include "geom/vec2.hpp"

namespace cdpf::geom {

/// Axis-aligned bounding box, inclusive on all edges.
struct Aabb {
  Vec2 lo;
  Vec2 hi;

  constexpr bool contains(Vec2 p) const {
    return p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }

  constexpr double width() const { return hi.x - lo.x; }
  constexpr double height() const { return hi.y - lo.y; }
  constexpr double area() const { return width() * height(); }

  constexpr Vec2 center() const { return {(lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0}; }

  /// Closest point of the box to p (p itself when inside).
  constexpr Vec2 clamp(Vec2 p) const {
    return {std::clamp(p.x, lo.x, hi.x), std::clamp(p.y, lo.y, hi.y)};
  }

  /// Field of the paper's evaluation: [0, side] x [0, side].
  static constexpr Aabb square(double side) { return {{0.0, 0.0}, {side, side}}; }
};

}  // namespace cdpf::geom
