#include "visibility/dov.h"

#include <algorithm>
#include <cmath>

namespace hdov {

DovComputer::DovComputer(const Scene* scene, const DovOptions& options)
    : scene_(scene), options_(options), buffer_(options.cubemap) {
  solid_angles_.resize(scene_->size());
  dov_.resize(scene_->size());
}

void DovComputer::Rasterize(const Vec3& p) {
  buffer_.Reset(p);
  for (const Object& obj : scene_->objects()) {
    if (options_.geometry == OccluderGeometry::kMeshLod &&
        !obj.lods.empty() && !obj.lods.finest().mesh.empty()) {
      size_t level = options_.occluder_lod_level;
      if (level >= obj.lods.num_levels()) {
        level = obj.lods.num_levels() - 1;
      }
      const TriangleMesh& mesh = obj.lods.level(level).mesh;
      for (size_t t = 0; t < mesh.triangle_count(); ++t) {
        auto [a, b, c] = mesh.TriangleVertices(t);
        buffer_.RasterizeTriangle(a, b, c, obj.id);
      }
    } else {
      buffer_.RasterizeBox(obj.mbr, obj.id);
    }
  }
}

const std::vector<float>& DovComputer::ComputePointDov(const Vec3& p) {
  Rasterize(p);
  std::fill(solid_angles_.begin(), solid_angles_.end(), 0.0);
  buffer_.AccumulateSolidAngles(&solid_angles_);
  constexpr double kInvSphere = 1.0 / (4.0 * M_PI);
  for (size_t i = 0; i < solid_angles_.size(); ++i) {
    dov_[i] = static_cast<float>(solid_angles_[i] * kInvSphere);
  }
  return dov_;
}

}  // namespace hdov
