#include "walkthrough/rtree_baseline.h"

#include <algorithm>
#include <unordered_map>

#include "walkthrough/lodr_system.h"
#include "walkthrough/review_system.h"

namespace hdov {

RTreeBaseline::RTreeBaseline(const Scene* scene,
                             const RTreeBaselineOptions& options)
    : scene_(scene), options_(options),
      index_device_(options.disk, &clock_),
      model_device_(options.disk, &clock_),
      models_(&model_device_) {}

Status RTreeBaseline::Build() {
  RTree rtree(options_.rtree);
  object_models_.resize(scene_->size());
  for (const Object& obj : scene_->objects()) {
    HDOV_RETURN_IF_ERROR(rtree.Insert(obj.mbr, obj.id));
    for (size_t level = 0; level < obj.lods.num_levels(); ++level) {
      object_models_[obj.id].push_back(
          models_.Register(obj.lods.level(level).byte_size));
    }
  }
  HDOV_ASSIGN_OR_RETURN(PackedRTree packed,
                        PackedRTree::Pack(rtree, &index_device_));
  packed_.emplace(packed);
  resident_ = ResidentSet(scene_->size());
  ResetIoStats();
  return Status::OK();
}

void RTreeBaseline::RegisterTelemetry() {
  telemetry::MetricsRegistry& m = telemetry()->metrics();
  index_device_.RegisterWith(&m, telemetry_prefix() + ".io.index");
  model_device_.RegisterWith(&m, telemetry_prefix() + ".io.model");
}

Status RTreeBaseline::RenderFrame(const Viewpoint& viewpoint,
                                  FrameResult* result) {
  telemetry::FlightFrameScope flight(FlightCode(), NextFlightFrame());
  const FrameMeter meter(this, clock_, index_device_, nullptr,
                         model_device_);
  std::vector<Pick> picks;
  HDOV_RETURN_IF_ERROR(Select(viewpoint, &picks));

  // Complement search + fetch. An object resident at a coarser LoD than
  // now wanted is re-fetched at the finer LoD.
  size_t fetched = 0;
  uint64_t triangles = 0;
  last_result_.clear();
  last_result_.reserve(picks.size());
  for (const Pick& pick : picks) {
    const Object& obj = scene_->object(pick.id);
    const uint32_t level = static_cast<uint32_t>(
        std::min<size_t>(pick.level, obj.lods.num_levels() - 1));
    const ModelId model = object_models_[pick.id][level];
    const uint64_t bytes = obj.lods.level(level).byte_size;
    const uint32_t tris = obj.lods.level(level).triangle_count;
    const ResidentEntry* held = resident_.Find(pick.id);
    if (!delta_enabled_ || held == nullptr || held->lod_level > level) {
      HDOV_RETURN_IF_ERROR(models_.Fetch(model));
      ++fetched;
      HDOV_RETURN_IF_ERROR(
          resident_.Put(pick.id, ResidentEntry{level, bytes, tris}));
    }
    triangles += tris;
    last_result_.push_back(RetrievedLod{.kind = RetrievedLod::Kind::kObject,
                                        .owner = pick.id,
                                        .lod_level = level,
                                        .model = model,
                                        .triangle_count = tris,
                                        .byte_size = bytes});
  }

  // Semantic cache replacement: evict objects beyond the cache distance.
  resident_.EraseIf([&](uint64_t id, const ResidentEntry&) {
    return scene_->object(static_cast<ObjectId>(id))
               .mbr.DistanceTo(viewpoint.position) > options_.cache_distance;
  });
  // No viewing cells: the record's cell is 0.
  meter.Finish(triangles, fetched, resident_.bytes(), options_.render, 0,
               &flight, result);
  return Status::OK();
}

void RTreeBaseline::ResetRuntime() {
  resident_.Clear();
  last_result_.clear();
}

IoStats RTreeBaseline::TotalIoStats() const {
  IoStats s = index_device_.stats();
  s += model_device_.stats();
  return s;
}

void RTreeBaseline::ResetIoStats() {
  index_device_.ResetStats();
  model_device_.ResetStats();
  clock_.Reset();
}

// ------------------------------------------------------------- REVIEW

Result<std::unique_ptr<ReviewSystem>> ReviewSystem::Create(
    const Scene* scene, const ReviewOptions& options) {
  auto system =
      std::unique_ptr<ReviewSystem>(new ReviewSystem(scene, options));
  HDOV_RETURN_IF_ERROR(system->Build());
  return system;
}

Status ReviewSystem::Query(const Vec3& position,
                           std::vector<uint64_t>* object_ids) {
  // The box spans the full world height: tall buildings must be found
  // regardless of the pedestrian eye height.
  const double half = options_.query_box_size / 2.0;
  const Aabb& world = scene().bounds();
  return WindowQuery(
      Aabb(Vec3(position.x - half, position.y - half, world.min.z),
           Vec3(position.x + half, position.y + half, world.max.z)),
      object_ids);
}

Status ReviewSystem::Select(const Viewpoint& viewpoint,
                            std::vector<Pick>* picks) {
  std::vector<uint64_t> ids;
  HDOV_RETURN_IF_ERROR(Query(viewpoint.position, &ids));
  const std::vector<double>& fractions = options_.lod_distance_fractions;
  for (uint64_t raw_id : ids) {
    const ObjectId id = static_cast<ObjectId>(raw_id);
    const double distance =
        scene().object(id).mbr.DistanceTo(viewpoint.position);
    // The first bucket nearer than f * box; past the last, the coarsest.
    size_t level = fractions.size();
    for (size_t i = 0; i < fractions.size(); ++i) {
      if (distance < fractions[i] * options_.query_box_size) {
        level = i;
        break;
      }
    }
    picks->push_back(Pick{id, static_cast<uint32_t>(level)});
  }
  return Status::OK();
}

// --------------------------------------------------------- LoD-R-tree

Result<std::unique_ptr<LodRTreeSystem>> LodRTreeSystem::Create(
    const Scene* scene, const LodRTreeOptions& options) {
  if (options.band_fractions.empty()) {
    return Status::InvalidArgument("lodr: need at least one depth band");
  }
  for (size_t i = 1; i < options.band_fractions.size(); ++i) {
    if (options.band_fractions[i] <= options.band_fractions[i - 1]) {
      return Status::InvalidArgument("lodr: bands must increase");
    }
  }
  auto system =
      std::unique_ptr<LodRTreeSystem>(new LodRTreeSystem(scene, options));
  HDOV_RETURN_IF_ERROR(system->Build());
  return system;
}

std::vector<Aabb> LodRTreeSystem::QueryBoxes(
    const Viewpoint& viewpoint) const {
  std::vector<Aabb> boxes;
  double previous = 0.0;
  for (double fraction : options_.band_fractions) {
    FrustumOptions fopt = options_.frustum;
    fopt.near_dist = std::max(0.1, previous * options_.frustum.far_dist);
    fopt.far_dist = fraction * options_.frustum.far_dist;
    boxes.push_back(
        Frustum(viewpoint.position, viewpoint.look, fopt).BoundingBox());
    previous = fraction;
  }
  return boxes;
}

Status LodRTreeSystem::Select(const Viewpoint& viewpoint,
                              std::vector<Pick>* picks) {
  // One window query per depth band; the nearest band an object appears
  // in decides its LoD (static, ad hoc — the scheme the paper critiques).
  // Objects are fetched in band_of's iteration order.
  std::vector<Aabb> boxes = QueryBoxes(viewpoint);
  std::unordered_map<ObjectId, uint32_t> band_of;
  std::vector<uint64_t> ids;
  for (size_t band = 0; band < boxes.size(); ++band) {
    HDOV_RETURN_IF_ERROR(WindowQuery(boxes[band], &ids));
    for (uint64_t raw : ids) {
      const ObjectId id = static_cast<ObjectId>(raw);
      auto [it, inserted] =
          band_of.emplace(id, static_cast<uint32_t>(band));
      if (!inserted) {
        it->second = std::min(it->second, static_cast<uint32_t>(band));
      }
    }
  }
  picks->reserve(band_of.size());
  for (const auto& [id, band] : band_of) {
    picks->push_back(Pick{id, band});
  }
  return Status::OK();
}

}  // namespace hdov
