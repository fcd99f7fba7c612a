// CubeMapBuffer: a software item buffer over the six faces of a cube map
// centered at a viewpoint. All occluder geometry is rasterized with
// z-buffering; afterwards each pixel is owned by the nearest item, and the
// per-item sums of exact per-pixel solid angles give the degree of
// visibility of every object simultaneously:
//
//   DoV(p, X) = (solid angle of visible part of X) / 4 pi        (paper §3.1)
//
// This is the software substitute for the paper's hardware-accelerated DoV
// computation (see DESIGN.md).

#ifndef HDOV_VISIBILITY_CUBEMAP_BUFFER_H_
#define HDOV_VISIBILITY_CUBEMAP_BUFFER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "geometry/aabb.h"
#include "geometry/vec3.h"

namespace hdov {

inline constexpr uint32_t kNoItem = ~static_cast<uint32_t>(0);

struct CubeMapOptions {
  // Pixels per cube face edge. 32 gives 6144 pixels (~0.2% solid-angle
  // resolution); raise for fidelity experiments.
  int face_resolution = 32;
};

class CubeMapBuffer {
 public:
  explicit CubeMapBuffer(const CubeMapOptions& options = CubeMapOptions());

  // Clears the buffer and re-centers it at `viewpoint`.
  void Reset(const Vec3& viewpoint);

  const Vec3& viewpoint() const { return viewpoint_; }
  int face_resolution() const { return res_; }

  // Rasterizes a (two-sided) occluder triangle owned by `item`.
  void RasterizeTriangle(const Vec3& a, const Vec3& b, const Vec3& c,
                         uint32_t item);

  // Rasterizes the 12 triangles of `box`: the buffer ends up bit-identical
  // to 12 RasterizeTriangle calls, but cube faces the box cannot reach, or
  // where every pixel it could cover is already nearer, are skipped whole.
  void RasterizeBox(const Aabb& box, uint32_t item);

  // Accumulates the visible solid angle of every item into `solid_angles`
  // (indexed by item id; the vector must be pre-sized and zeroed by the
  // caller). Returns the total covered solid angle.
  double AccumulateSolidAngles(std::vector<double>* solid_angles) const;

  // Solid angle of one specific item (linear scan; for tests).
  double SolidAngleOf(uint32_t item) const;

  // Fraction of the sphere covered by any item.
  double TotalCoverage() const;

 private:
  struct Face {
    Vec3 forward, right, up;
  };

  // Pixel solid angle helper: integral corner term for face-plane
  // coordinates (x, y) on the z=1 plane.
  static double CornerSolidAngle(double x, double y);

  // Clips the camera-space triangle `cam[0..2]` to `face` and rasterizes
  // what is left there.
  void ClipToFace(int face, const Vec3* cam, uint32_t item);
  void RasterizeOnFace(int face, const Vec3* poly, int n, uint32_t item);

  // Whole-box tests over the camera-space corners `c[0..7]` (`extent` is
  // their largest L1 norm). Each returns true only where ClipToFace would
  // write no pixel for any of the box's triangles.
  bool BoxSkipsFace(int face, const Vec3* c, double extent) const;
  // `depth` holds the corners' face depths, all past the near plane.
  bool BoxOccludedOnFace(int face, const Vec3* c, const double* depth,
                         double extent) const;

  CubeMapOptions options_;
  int res_;
  Vec3 viewpoint_;
  std::vector<uint32_t> items_;   // 6 * res * res.
  std::vector<float> inv_depth_;  // Larger = closer.
  std::vector<double> pixel_solid_angle_;  // res * res (same per face).
  std::array<Face, 6> faces_;
};

}  // namespace hdov

#endif  // HDOV_VISIBILITY_CUBEMAP_BUFFER_H_
