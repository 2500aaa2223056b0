// 2-D vector / point type used for node positions and target kinematics.
#pragma once

#include <cmath>
#include <iosfwd>

namespace cdpf::geom {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  constexpr Vec2 operator+(Vec2 rhs) const { return {x + rhs.x, y + rhs.y}; }
  constexpr Vec2 operator-(Vec2 rhs) const { return {x - rhs.x, y - rhs.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }
  constexpr Vec2 operator/(double s) const { return {x / s, y / s}; }

  constexpr Vec2& operator+=(Vec2 rhs) {
    x += rhs.x;
    y += rhs.y;
    return *this;
  }
  constexpr Vec2& operator-=(Vec2 rhs) {
    x -= rhs.x;
    y -= rhs.y;
    return *this;
  }
  constexpr Vec2& operator*=(double s) {
    x *= s;
    y *= s;
    return *this;
  }

  constexpr bool operator==(const Vec2&) const = default;

  constexpr double norm_squared() const { return x * x + y * y; }
  double norm() const { return std::hypot(x, y); }

  /// Unit vector in the same direction; the zero vector maps to itself.
  Vec2 normalized() const {
    const double n = norm();
    return n > 0.0 ? Vec2{x / n, y / n} : Vec2{};
  }

  /// Angle of the vector measured from +x, in (-pi, pi].
  double angle() const { return std::atan2(y, x); }

  /// Unit vector with the given angle from +x.
  static Vec2 from_angle(double radians) {
    return {std::cos(radians), std::sin(radians)};
  }
};

inline double distance(Vec2 a, Vec2 b) { return (a - b).norm(); }
constexpr double distance_squared(Vec2 a, Vec2 b) { return (a - b).norm_squared(); }

std::ostream& operator<<(std::ostream& os, Vec2 v);

}  // namespace cdpf::geom
