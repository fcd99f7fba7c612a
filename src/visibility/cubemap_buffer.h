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
  // resolution); the testbed and perfbench build their worlds at 64
  // (24,576 pixels). Raise for fidelity experiments.
  int face_resolution = 32;
};

class CubeMapBuffer {
 public:
  explicit CubeMapBuffer(const CubeMapOptions& options = CubeMapOptions());

  // Clears the buffer and re-centers it at `viewpoint`.
  void Reset(const Vec3& viewpoint);

  const Vec3& viewpoint() const { return viewpoint_; }
  int face_resolution() const { return res_; }

  // Rasterizes a (two-sided) occluder triangle owned by `item`. On each
  // cube face the triangle is clipped to the near plane and the four side
  // planes, then scan-converted. Inside-face rule: when all three vertices
  // pass all five clip tests, the clipper keeps every vertex and adds no
  // intersection (it cuts only an edge whose ends test on opposite
  // sides), so it would return the triangle unchanged; the clip is then
  // skipped. The tests evaluate the clipper's own expressions, so the
  // verdict, and every pixel written, is bit-identical to clipping.
  void RasterizeTriangle(const Vec3& a, const Vec3& b, const Vec3& c,
                         uint32_t item);

  // Rasterizes the 12 triangles of `box`: the buffer ends up bit-identical
  // to 12 RasterizeTriangle calls, but cube faces the box cannot reach, or
  // where every pixel it could cover is already nearer, are skipped whole.
  // On a face where all 8 corners pass the five clip tests, the
  // inside-face rule holds for all 12 triangles; the corners are then
  // projected once each (by the same expressions) rather than once per
  // triangle that uses them.
  void RasterizeBox(const Aabb& box, uint32_t item);

  // Accumulates the visible solid angle of every item into `solid_angles`
  // (indexed by item id; the vector must be pre-sized and zeroed by the
  // caller). Returns the total covered solid angle.
  double AccumulateSolidAngles(std::vector<double>* solid_angles) const;

  // Solid angle of one specific item (linear scan; for tests).
  double SolidAngleOf(uint32_t item) const;

  // Fraction of the sphere covered by any item.
  double TotalCoverage() const;

  // Raw buffer contents, face after face, row after row (for tests): the
  // owning item and the stored 1/depth of every pixel.
  const std::vector<uint32_t>& items() const { return items_; }
  const std::vector<float>& inverse_depths() const { return inv_depth_; }

 private:
  struct Face {
    Vec3 forward, right, up;
    // Normals of the side clip half-spaces n·p >= 0: -right, +right,
    // -up, +up, in clip order.
    std::array<Vec3, 4> side = {};
  };
  // A camera-space point projected on a face: plane coordinates (u, v)
  // in [-1, 1] and w = 1/depth.
  struct Projected {
    double u, v, w;
  };

  // Pixel solid angle helper: integral corner term for face-plane
  // coordinates (x, y) on the z=1 plane.
  static double CornerSolidAngle(double x, double y);

  // True when `p` passes the near test and all four side tests of `f`,
  // i.e. no clip plane of the face can cut an edge ending at `p`.
  static bool InsideFace(const Face& f, const Vec3& p);
  static Projected Project(const Face& f, const Vec3& p);

  // Clips the camera-space triangle `cam[0..2]` to `face` and rasterizes
  // what is left there.
  void ClipToFace(int face, const Vec3* cam, uint32_t item);
  // Projects the clipped convex polygon `poly[0..n-1]` and rasterizes its
  // triangle fan.
  void RasterizeOnFace(int face, const Vec3* poly, int n, uint32_t item);
  // Scan-converts one projected triangle with z-buffering.
  void RasterizeProjected(int face, const Projected& a, const Projected& b,
                          const Projected& c, uint32_t item);

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
  std::vector<double> pixel_center_;  // res: centre of pixel column/row i.
  std::array<Face, 6> faces_;
};

}  // namespace hdov

#endif  // HDOV_VISIBILITY_CUBEMAP_BUFFER_H_
