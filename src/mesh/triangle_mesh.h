// TriangleMesh: the indexed triangle mesh representation used for object
// models, LoDs and occluder geometry.

#ifndef HDOV_MESH_TRIANGLE_MESH_H_
#define HDOV_MESH_TRIANGLE_MESH_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "geometry/aabb.h"
#include "geometry/vec3.h"

namespace hdov {

struct Triangle {
  std::array<uint32_t, 3> v{0, 0, 0};

  uint32_t operator[](int i) const { return v[static_cast<size_t>(i)]; }
};

class TriangleMesh {
 public:
  TriangleMesh() = default;

  TriangleMesh(std::vector<Vec3> vertices, std::vector<Triangle> triangles)
      : vertices_(std::move(vertices)), triangles_(std::move(triangles)) {}

  const std::vector<Vec3>& vertices() const { return vertices_; }
  const std::vector<Triangle>& triangles() const { return triangles_; }
  std::vector<Vec3>& mutable_vertices() { return vertices_; }
  std::vector<Triangle>& mutable_triangles() { return triangles_; }

  size_t vertex_count() const { return vertices_.size(); }
  size_t triangle_count() const { return triangles_.size(); }
  bool empty() const { return triangles_.empty(); }

  uint32_t AddVertex(const Vec3& p) {
    vertices_.push_back(p);
    return static_cast<uint32_t>(vertices_.size() - 1);
  }

  void AddTriangle(uint32_t a, uint32_t b, uint32_t c) {
    triangles_.push_back(Triangle{{a, b, c}});
  }

  // Positions of the three corners of triangle `t`.
  std::array<Vec3, 3> TriangleVertices(size_t t) const {
    const Triangle& tri = triangles_[t];
    return {vertices_[tri.v[0]], vertices_[tri.v[1]], vertices_[tri.v[2]]};
  }

  Aabb BoundingBox() const;
  double SurfaceArea() const;
  Vec3 Centroid() const;  // Area-weighted centroid of the surface.

  // Geometric normal of triangle `t` (zero for degenerate triangles).
  Vec3 TriangleNormal(size_t t) const;

  // Appends all geometry of `other` (used to aggregate node internal LoDs).
  void Append(const TriangleMesh& other);

  void Translate(const Vec3& delta);
  void Scale(double factor);
  void Scale(const Vec3& factors);

  // Checks index bounds and that no triangle repeats a vertex index.
  Status Validate() const;

  // Drops vertices not referenced by any triangle, remapping indices.
  void CompactVertices();

 private:
  std::vector<Vec3> vertices_;
  std::vector<Triangle> triangles_;
};

}  // namespace hdov

#endif  // HDOV_MESH_TRIANGLE_MESH_H_
