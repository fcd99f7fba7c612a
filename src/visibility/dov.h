// DovComputer: evaluates the degree of visibility (DoV, paper §3.1) of
// every scene object from a viewpoint. Region DoV, the conservative
// maximum over a cell's sample viewpoints (Eq. 2), is taken by
// PrecomputeVisibility (precompute.h).

#ifndef HDOV_VISIBILITY_DOV_H_
#define HDOV_VISIBILITY_DOV_H_

#include <cstdint>
#include <vector>

#include "scene/object.h"
#include "visibility/cubemap_buffer.h"

namespace hdov {

enum class OccluderGeometry : uint8_t {
  // Rasterize object MBR boxes. Exact for box-like buildings, slightly
  // aggressive for organic shapes; always available (proxy scenes carry no
  // meshes).
  kMbrBoxes = 0,
  // Rasterize a LoD mesh of each object (full-geometry scenes only).
  kMeshLod = 1,
};

struct DovOptions {
  CubeMapOptions cubemap;
  OccluderGeometry geometry = OccluderGeometry::kMbrBoxes;
  // LoD level used as occluder geometry in kMeshLod mode; SIZE_MAX means
  // the coarsest level (cheap and adequate for occlusion).
  size_t occluder_lod_level = static_cast<size_t>(-1);
};

class DovComputer {
 public:
  DovComputer(const Scene* scene, const DovOptions& options);

  // DoV of each object viewed from `p` (indexed by ObjectId, in [0, 0.5]
  // for viewpoints outside the object).
  const std::vector<float>& ComputePointDov(const Vec3& p);

 private:
  void Rasterize(const Vec3& p);

  const Scene* scene_;
  DovOptions options_;
  CubeMapBuffer buffer_;
  std::vector<double> solid_angles_;  // Scratch, one slot per object.
  std::vector<float> dov_;            // Last point result.
};

}  // namespace hdov

#endif  // HDOV_VISIBILITY_DOV_H_
