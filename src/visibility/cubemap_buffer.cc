#include "visibility/cubemap_buffer.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hdov {

namespace {

constexpr double kNearEpsilon = 1e-6;
// Side planes sit this much (relative) outside the face's 45° frustum.
constexpr double kSideSlack = 1e-9;

// Sutherland–Hodgman clip of a camera-space polygon against the half-space
// n·v >= offset. `in`/`out` must differ.
int ClipAgainstPlane(const Vec3* in, int n_in, const Vec3& n, double offset,
                     Vec3* out) {
  int n_out = 0;
  for (int i = 0; i < n_in; ++i) {
    const Vec3& a = in[i];
    const Vec3& b = in[(i + 1) % n_in];
    const double da = n.Dot(a) - offset;
    const double db = n.Dot(b) - offset;
    if (da >= 0.0) {
      out[n_out++] = a;
    }
    if ((da >= 0.0) != (db >= 0.0)) {
      double t = da / (da - db);
      out[n_out++] = a + (b - a) * t;
    }
  }
  return n_out;
}

}  // namespace

CubeMapBuffer::CubeMapBuffer(const CubeMapOptions& options)
    : options_(options), res_(std::max(2, options.face_resolution)) {
  const size_t pixels = static_cast<size_t>(6) * res_ * res_;
  items_.assign(pixels, kNoItem);
  inv_depth_.assign(pixels, 0.0f);

  // Face bases: forward, right, up per face. The (right, up) choice only
  // fixes the pixel grid orientation; solid angles are unaffected.
  faces_[0] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};    // +x
  faces_[1] = {{-1, 0, 0}, {0, -1, 0}, {0, 0, 1}};  // -x
  faces_[2] = {{0, 1, 0}, {-1, 0, 0}, {0, 0, 1}};   // +y
  faces_[3] = {{0, -1, 0}, {1, 0, 0}, {0, 0, 1}};   // -y
  faces_[4] = {{0, 0, 1}, {1, 0, 0}, {0, 1, 0}};    // +z
  faces_[5] = {{0, 0, -1}, {1, 0, 0}, {0, -1, 0}};  // -z
  // Side clip planes, with a hair of slack so neighbouring faces overlap
  // rather than leave seams.
  for (Face& f : faces_) {
    const Vec3 fs = f.forward * (1.0 + kSideSlack);
    f.side = {fs - f.right, fs + f.right, fs - f.up, fs + f.up};
  }

  pixel_center_.resize(res_);
  for (int i = 0; i < res_; ++i) {
    pixel_center_[i] = 2.0 * (i + 0.5) / res_ - 1.0;
  }

  // Exact per-pixel solid angles on the z = 1 face plane.
  pixel_solid_angle_.assign(static_cast<size_t>(res_) * res_, 0.0);
  auto plane_coord = [&](int i) { return 2.0 * i / res_ - 1.0; };
  for (int j = 0; j < res_; ++j) {
    for (int i = 0; i < res_; ++i) {
      const double x0 = plane_coord(i);
      const double x1 = plane_coord(i + 1);
      const double y0 = plane_coord(j);
      const double y1 = plane_coord(j + 1);
      pixel_solid_angle_[static_cast<size_t>(j) * res_ + i] =
          CornerSolidAngle(x1, y1) - CornerSolidAngle(x0, y1) -
          CornerSolidAngle(x1, y0) + CornerSolidAngle(x0, y0);
    }
  }
}

double CubeMapBuffer::CornerSolidAngle(double x, double y) {
  return std::atan2(x * y, std::sqrt(x * x + y * y + 1.0));
}

void CubeMapBuffer::Reset(const Vec3& viewpoint) {
  viewpoint_ = viewpoint;
  std::fill(items_.begin(), items_.end(), kNoItem);
  std::fill(inv_depth_.begin(), inv_depth_.end(), 0.0f);
}

void CubeMapBuffer::RasterizeTriangle(const Vec3& a, const Vec3& b,
                                      const Vec3& c, uint32_t item) {
  const Vec3 cam[3] = {a - viewpoint_, b - viewpoint_, c - viewpoint_};
  for (int face = 0; face < 6; ++face) {
    ClipToFace(face, cam, item);
  }
}

bool CubeMapBuffer::InsideFace(const Face& f, const Vec3& p) {
  // The expressions ClipAgainstPlane evaluates, so the verdict is its own.
  if (!(f.forward.Dot(p) - kNearEpsilon >= 0.0)) {
    return false;
  }
  for (const Vec3& n : f.side) {
    if (!(n.Dot(p) - 0.0 >= 0.0)) {
      return false;
    }
  }
  return true;
}

CubeMapBuffer::Projected CubeMapBuffer::Project(const Face& f,
                                                const Vec3& p) {
  // 1/depth is kept for z-buffering: it is affine in screen space across
  // a planar polygon.
  const double depth = f.forward.Dot(p);
  const double inv = 1.0 / depth;
  return {f.right.Dot(p) * inv, f.up.Dot(p) * inv, inv};
}

void CubeMapBuffer::ClipToFace(int face, const Vec3* cam, uint32_t item) {
  const Face& f = faces_[face];
  // Quick reject: all three vertices behind the face.
  if (f.forward.Dot(cam[0]) <= 0.0 && f.forward.Dot(cam[1]) <= 0.0 &&
      f.forward.Dot(cam[2]) <= 0.0) {
    return;
  }
  // No plane cuts a triangle whose vertices are all inside: the clip
  // would hand back `cam` itself.
  if (InsideFace(f, cam[0]) && InsideFace(f, cam[1]) &&
      InsideFace(f, cam[2])) {
    RasterizeOnFace(face, cam, 3, item);
    return;
  }
  // Scratch buffers big enough for a triangle clipped by 5 planes.
  Vec3 buf_a[16];
  Vec3 buf_b[16];
  buf_a[0] = cam[0];
  buf_a[1] = cam[1];
  buf_a[2] = cam[2];
  int n = 3;
  // Near plane, then the four side planes.
  n = ClipAgainstPlane(buf_a, n, f.forward, kNearEpsilon, buf_b);
  if (n < 3) return;
  n = ClipAgainstPlane(buf_b, n, f.side[0], 0.0, buf_a);
  if (n < 3) return;
  n = ClipAgainstPlane(buf_a, n, f.side[1], 0.0, buf_b);
  if (n < 3) return;
  n = ClipAgainstPlane(buf_b, n, f.side[2], 0.0, buf_a);
  if (n < 3) return;
  n = ClipAgainstPlane(buf_a, n, f.side[3], 0.0, buf_b);
  if (n < 3) return;
  RasterizeOnFace(face, buf_b, n, item);
}

void CubeMapBuffer::RasterizeOnFace(int face, const Vec3* poly, int n,
                                    uint32_t item) {
  Projected p[16];
  for (int i = 0; i < n; ++i) {
    p[i] = Project(faces_[face], poly[i]);
  }
  // Fan-triangulate.
  for (int k = 1; k + 1 < n; ++k) {
    RasterizeProjected(face, p[0], p[k], p[k + 1], item);
  }
}

void CubeMapBuffer::RasterizeProjected(int face, const Projected& a,
                                       const Projected& b,
                                       const Projected& c, uint32_t item) {
  const double ux[3] = {a.u, b.u, c.u};
  const double vy[3] = {a.v, b.v, c.v};
  const double ws[3] = {a.w, b.w, c.w};

  const double min_u = std::min({ux[0], ux[1], ux[2]});
  const double max_u = std::max({ux[0], ux[1], ux[2]});
  const double min_v = std::min({vy[0], vy[1], vy[2]});
  const double max_v = std::max({vy[0], vy[1], vy[2]});

  // Pixel index range covering [min, max] in [-1, 1] coordinates.
  const int i0 = std::max(0, static_cast<int>((min_u + 1.0) * 0.5 * res_));
  const int i1 =
      std::min(res_ - 1, static_cast<int>((max_u + 1.0) * 0.5 * res_));
  const int j0 = std::max(0, static_cast<int>((min_v + 1.0) * 0.5 * res_));
  const int j1 =
      std::min(res_ - 1, static_cast<int>((max_v + 1.0) * 0.5 * res_));
  if (i0 > i1 || j0 > j1) {
    return;
  }

  const double area = (ux[1] - ux[0]) * (vy[2] - vy[0]) -
                      (ux[2] - ux[0]) * (vy[1] - vy[0]);
  if (std::fabs(area) < 1e-18) {
    return;
  }
  const double inv_area = 1.0 / area;

  const size_t face_offset = static_cast<size_t>(face) * res_ * res_;
  uint32_t* face_items = items_.data() + face_offset;
  float* face_depth = inv_depth_.data() + face_offset;
  for (int j = j0; j <= j1; ++j) {
    const double py = pixel_center_[j];
    for (int i = i0; i <= i1; ++i) {
      const double px = pixel_center_[i];
      // Barycentric coordinates (signed, normalized by the full area so
      // both windings are accepted when all have the same sign).
      const double w0 = ((ux[1] - px) * (vy[2] - py) -
                         (ux[2] - px) * (vy[1] - py)) *
                        inv_area;
      const double w1 = ((ux[2] - px) * (vy[0] - py) -
                         (ux[0] - px) * (vy[2] - py)) *
                        inv_area;
      const double w2 = 1.0 - w0 - w1;
      if (w0 < 0.0 || w1 < 0.0 || w2 < 0.0) {
        continue;
      }
      const double inv_depth = w0 * ws[0] + w1 * ws[1] + w2 * ws[2];
      const size_t pixel = static_cast<size_t>(j) * res_ + i;
      if (inv_depth > face_depth[pixel]) {
        face_depth[pixel] = static_cast<float>(inv_depth);
        face_items[pixel] = item;
      }
    }
  }
}

void CubeMapBuffer::RasterizeBox(const Aabb& box, uint32_t item) {
  if (box.IsEmpty()) {
    return;
  }
  // Camera-space corners: exactly the vertices RasterizeTriangle would
  // compute for each of the box's triangles.
  Vec3 c[8];
  double extent = 0.0;  // Largest corner L1 norm.
  for (int i = 0; i < 8; ++i) {
    c[i] = box.Corner(i) - viewpoint_;
    extent = std::max(
        extent, std::fabs(c[i].x) + std::fabs(c[i].y) + std::fabs(c[i].z));
  }
  static constexpr int kQuads[6][4] = {
      {0, 2, 3, 1},  // bottom
      {4, 5, 7, 6},  // top
      {0, 1, 5, 4},  // front
      {2, 6, 7, 3},  // back
      {0, 4, 6, 2},  // left
      {1, 3, 7, 5},  // right
  };
  // Face-outer: a face writes only its own pixels, so each face still sees
  // the box's triangles in the order 12 RasterizeTriangle calls give.
  for (int face = 0; face < 6; ++face) {
    if (BoxSkipsFace(face, c, extent)) {
      continue;
    }
    const Face& f = faces_[face];
    bool inside = true;
    for (int i = 0; i < 8 && inside; ++i) {
      inside = InsideFace(f, c[i]);
    }
    if (inside) {
      // Every triangle takes ClipToFace's no-clip path: project each
      // corner once instead of once per triangle that uses it.
      Projected p[8];
      for (int i = 0; i < 8; ++i) {
        p[i] = Project(f, c[i]);
      }
      for (const auto& q : kQuads) {
        RasterizeProjected(face, p[q[0]], p[q[1]], p[q[2]], item);
        RasterizeProjected(face, p[q[0]], p[q[2]], p[q[3]], item);
      }
      continue;
    }
    for (const auto& q : kQuads) {
      const Vec3 first[3] = {c[q[0]], c[q[1]], c[q[2]]};
      const Vec3 second[3] = {c[q[0]], c[q[2]], c[q[3]]};
      ClipToFace(face, first, item);
      ClipToFace(face, second, item);
    }
  }
}

bool CubeMapBuffer::BoxSkipsFace(int face, const Vec3* c,
                                 double extent) const {
  const Face& f = faces_[face];
  // Near plane: the very test the near clip applies to each vertex. With
  // every corner failing it, each triangle clips to nothing.
  double depth[8];
  int in_front = 0;
  for (int i = 0; i < 8; ++i) {
    depth[i] = f.forward.Dot(c[i]);
    in_front += depth[i] - kNearEpsilon >= 0.0;
  }
  if (in_front == 0) {
    return true;
  }
  // Side planes: every corner strictly outside one of them. The margin
  // dwarfs the rounding of vertices the near clip interpolates (~1e-15
  // relative), which could otherwise land a hair inside the plane.
  const double margin = 1e-9 * extent;
  for (const Vec3& n : f.side) {
    bool outside = true;
    for (int i = 0; i < 8 && outside; ++i) {
      outside = n.Dot(c[i]) < -margin;
    }
    if (outside) {
      return true;
    }
  }
  return in_front == 8 && BoxOccludedOnFace(face, c, depth, extent);
}

bool CubeMapBuffer::BoxOccludedOnFace(int face, const Vec3* c,
                                      const double* depth,
                                      double extent) const {
  const Face& f = faces_[face];
  double min_depth = depth[0];
  for (int i = 1; i < 8; ++i) {
    min_depth = std::min(min_depth, depth[i]);
  }
  // A box nearly touching the near plane relative to its size could carry
  // clip rounding past the 1e-6 slack below; leave it to the z-test.
  if (min_depth * 1e6 < extent) {
    return false;
  }
  // The projected box bounds every pixel its clipped triangles can cover,
  // and its nearest corner bounds their interpolated 1/depth.
  double min_u = std::numeric_limits<double>::infinity();
  double max_u = -min_u;
  double min_v = min_u;
  double max_v = -min_u;
  for (int i = 0; i < 8; ++i) {
    const Projected p = Project(f, c[i]);
    min_u = std::min(min_u, p.u);
    max_u = std::max(max_u, p.u);
    min_v = std::min(min_v, p.v);
    max_v = std::max(max_v, p.v);
  }
  const double bound = (1.0 / min_depth) * (1.0 + 1e-6);
  // Pixel range of the projection, widened by one pixel per side against
  // rounding; clamped before the int conversion.
  auto pixel = [&](double t) {
    return std::clamp((t + 1.0) * 0.5 * res_, -1.0,
                      static_cast<double>(res_));
  };
  const int i0 = std::max(0, static_cast<int>(pixel(min_u)) - 1);
  const int i1 = std::min(res_ - 1, static_cast<int>(pixel(max_u)) + 1);
  const int j0 = std::max(0, static_cast<int>(pixel(min_v)) - 1);
  const int j1 = std::min(res_ - 1, static_cast<int>(pixel(max_v)) + 1);
  const float* face_depth =
      inv_depth_.data() + static_cast<size_t>(face) * res_ * res_;
  // Only when every pixel already holds a depth at least `bound` can no
  // triangle of the box pass the strict z-test anywhere.
  for (int j = j0; j <= j1; ++j) {
    for (int i = i0; i <= i1; ++i) {
      if (face_depth[static_cast<size_t>(j) * res_ + i] < bound) {
        return false;
      }
    }
  }
  return true;
}

double CubeMapBuffer::AccumulateSolidAngles(
    std::vector<double>* solid_angles) const {
  double total = 0.0;
  const size_t face_pixels = static_cast<size_t>(res_) * res_;
  for (int face = 0; face < 6; ++face) {
    const uint32_t* face_items = items_.data() + face * face_pixels;
    for (size_t p = 0; p < face_pixels; ++p) {
      const uint32_t item = face_items[p];
      if (item == kNoItem) {
        continue;
      }
      const double omega = pixel_solid_angle_[p];
      total += omega;
      if (item < solid_angles->size()) {
        (*solid_angles)[item] += omega;
      }
    }
  }
  return total;
}

double CubeMapBuffer::SolidAngleOf(uint32_t item) const {
  double total = 0.0;
  const size_t face_pixels = static_cast<size_t>(res_) * res_;
  for (int face = 0; face < 6; ++face) {
    const uint32_t* face_items = items_.data() + face * face_pixels;
    for (size_t p = 0; p < face_pixels; ++p) {
      if (face_items[p] == item) {
        total += pixel_solid_angle_[p];
      }
    }
  }
  return total;
}

double CubeMapBuffer::TotalCoverage() const {
  double covered = 0.0;
  const size_t face_pixels = static_cast<size_t>(res_) * res_;
  for (int face = 0; face < 6; ++face) {
    const uint32_t* face_items = items_.data() + face * face_pixels;
    for (size_t p = 0; p < face_pixels; ++p) {
      if (face_items[p] != kNoItem) {
        covered += pixel_solid_angle_[p];
      }
    }
  }
  return covered / (4.0 * M_PI);
}

}  // namespace hdov
