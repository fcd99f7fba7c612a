// Aabb: axis-aligned bounding box. This is the MBR type stored in every
// R-tree / HDoV-tree entry (the paper's `MBR` field).

#ifndef HDOV_GEOMETRY_AABB_H_
#define HDOV_GEOMETRY_AABB_H_

#include <algorithm>
#include <limits>
#include <string>

#include "geometry/vec3.h"

namespace hdov {

struct Aabb {
  Vec3 min{std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity(),
           std::numeric_limits<double>::infinity()};
  Vec3 max{-std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity(),
           -std::numeric_limits<double>::infinity()};

  constexpr Aabb() = default;
  constexpr Aabb(const Vec3& min_in, const Vec3& max_in)
      : min(min_in), max(max_in) {}

  // An empty box is the identity for Extend: min > max on every axis.
  static constexpr Aabb Empty() { return Aabb(); }

  bool IsEmpty() const {
    return min.x > max.x || min.y > max.y || min.z > max.z;
  }

  // True when min <= max on all axes (empty boxes are invalid).
  bool IsValid() const { return !IsEmpty(); }

  void Extend(const Vec3& p) {
    min.x = std::min(min.x, p.x);
    min.y = std::min(min.y, p.y);
    min.z = std::min(min.z, p.z);
    max.x = std::max(max.x, p.x);
    max.y = std::max(max.y, p.y);
    max.z = std::max(max.z, p.z);
  }

  void Extend(const Aabb& b) {
    if (b.IsEmpty()) {
      return;
    }
    Extend(b.min);
    Extend(b.max);
  }

  // The union box of `a` and `b`.
  static Aabb Union(const Aabb& a, const Aabb& b) {
    Aabb result = a;
    result.Extend(b);
    return result;
  }

  Vec3 Center() const { return (min + max) * 0.5; }
  Vec3 Extent() const { return max - min; }

  double Volume() const {
    if (IsEmpty()) {
      return 0.0;
    }
    Vec3 e = Extent();
    return e.x * e.y * e.z;
  }

  bool Contains(const Vec3& p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y &&
           p.z >= min.z && p.z <= max.z;
  }

  bool Contains(const Aabb& b) const {
    return !b.IsEmpty() && Contains(b.min) && Contains(b.max);
  }

  bool Intersects(const Aabb& b) const {
    if (IsEmpty() || b.IsEmpty()) {
      return false;
    }
    return min.x <= b.max.x && max.x >= b.min.x && min.y <= b.max.y &&
           max.y >= b.min.y && min.z <= b.max.z && max.z >= b.min.z;
  }

  // Volume of the intersection box (0 when disjoint).
  double OverlapVolume(const Aabb& b) const;

  // Increase in volume if this box were extended to cover `b`.
  double Enlargement(const Aabb& b) const {
    return Union(*this, b).Volume() - Volume();
  }

  // Squared distance from `p` to the closest point of the box (0 inside).
  double DistanceSquaredTo(const Vec3& p) const;
  double DistanceTo(const Vec3& p) const {
    return std::sqrt(DistanceSquaredTo(p));
  }

  // The corner with index i in [0, 8): bit 0 -> x, bit 1 -> y, bit 2 -> z.
  Vec3 Corner(int i) const {
    return {(i & 1) ? max.x : min.x, (i & 2) ? max.y : min.y,
            (i & 4) ? max.z : min.z};
  }

  std::string ToString() const;

  friend bool operator==(const Aabb& a, const Aabb& b) {
    return a.min == b.min && a.max == b.max;
  }
};

}  // namespace hdov

#endif  // HDOV_GEOMETRY_AABB_H_
