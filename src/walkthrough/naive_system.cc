#include "walkthrough/naive_system.h"

#include <algorithm>

#include "common/coding.h"
#include "hdov/search.h"  // kMaxDov and RetrievedLod.

namespace hdov {

NaiveSystem::NaiveSystem(const Scene* scene, const CellGrid* grid,
                         const NaiveOptions& options)
    : scene_(scene), grid_(grid), options_(options),
      list_device_(options.disk, &clock_),
      model_device_(options.disk, &clock_),
      models_(&model_device_),
      lists_(&list_device_) {}

Result<std::unique_ptr<NaiveSystem>> NaiveSystem::Create(
    const Scene* scene, const CellGrid* grid, const VisibilityTable* table,
    const NaiveOptions& options) {
  if (grid->num_cells() != table->num_cells()) {
    return Status::InvalidArgument(
        "naive: grid and visibility table disagree on cell count");
  }
  auto system =
      std::unique_ptr<NaiveSystem>(new NaiveSystem(scene, grid, options));

  system->object_models_.resize(scene->size());
  for (const Object& obj : scene->objects()) {
    auto& slots = system->object_models_[obj.id];
    for (size_t level = 0; level < obj.lods.num_levels(); ++level) {
      slots.push_back(
          system->models_.Register(obj.lods.level(level).byte_size));
    }
  }

  // Serialize each cell's visible-object list into its own extent.
  system->cell_extents_.reserve(table->num_cells());
  for (CellId c = 0; c < table->num_cells(); ++c) {
    const CellVisibility& cell = table->cell(c);
    std::string payload;
    EncodeFixed32(&payload, static_cast<uint32_t>(cell.ids.size()));
    for (size_t i = 0; i < cell.ids.size(); ++i) {
      EncodeFixed32(&payload, cell.ids[i]);
      EncodeFloat(&payload, cell.dov[i]);
    }
    HDOV_ASSIGN_OR_RETURN(Extent extent, system->lists_.Append(payload));
    system->cell_extents_.push_back(extent);
  }
  system->resident_ = ResidentSet(system->models_.num_models());
  system->next_resident_ = ResidentSet(system->models_.num_models());
  system->ResetIoStats();
  return system;
}

void NaiveSystem::RegisterTelemetry() {
  telemetry::MetricsRegistry& m = telemetry()->metrics();
  const std::string& p = telemetry_prefix();
  list_device_.RegisterWith(&m, p + ".io.list");
  model_device_.RegisterWith(&m, p + ".io.model");
}

Status NaiveSystem::Query(const Vec3& position, bool fetch_models,
                          std::vector<RetrievedLod>* result) {
  const CellId cell = grid_->ClampedCellForPoint(position);
  // The whole list is read on every cell change (and on every query when
  // delta is disabled) — there is no index to prune it.
  const bool reread = !delta_enabled_ || cell != current_cell_;
  current_cell_ = cell;

  result->clear();
  if (reread || cached_list_.empty()) {
    HDOV_ASSIGN_OR_RETURN(std::string payload,
                          lists_.ReadExtent(cell_extents_[cell]));
    Decoder decoder(payload);
    uint32_t count = 0;
    HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&count));
    cached_list_.clear();
    cached_list_.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t id = 0;
      float dov = 0.0f;
      HDOV_RETURN_IF_ERROR(decoder.DecodeFixed32(&id));
      HDOV_RETURN_IF_ERROR(decoder.DecodeFloat(&dov));
      cached_list_.emplace_back(id, dov);
    }
  }

  for (const auto& [id, dov] : cached_list_) {
    const Object& obj = scene_->object(id);
    // Same Eq. 6 object LoD selection as the HDoV leaf case, so that
    // eta = 0 HDoV search and the naive search retrieve identical sets.
    const double k = std::min(static_cast<double>(dov) / kMaxDov, 1.0);
    RetrievedLod lod;
    lod.kind = RetrievedLod::Kind::kObject;
    lod.owner = id;
    lod.lod_level = static_cast<uint32_t>(obj.lods.LevelForBlend(k));
    lod.model = object_models_[id][lod.lod_level];
    lod.triangle_count = obj.lods.level(lod.lod_level).triangle_count;
    lod.byte_size = obj.lods.level(lod.lod_level).byte_size;
    lod.dov = dov;
    result->push_back(lod);
  }
  if (fetch_models) {
    for (const RetrievedLod& lod : *result) {
      HDOV_RETURN_IF_ERROR(models_.Fetch(lod.model));
    }
  }
  return Status::OK();
}

Status NaiveSystem::RenderFrame(const Viewpoint& viewpoint,
                                FrameResult* result) {
  telemetry::FlightFrameScope flight(FlightCode(), NextFlightFrame());
  const FrameMeter meter(this, clock_, list_device_, nullptr, model_device_);

  HDOV_RETURN_IF_ERROR(
      Query(viewpoint.position, /*fetch_models=*/false, &last_result_));

  // Lookups read the last frame's set only; a model repeated in one
  // result keeps its first entry.
  size_t fetched = 0;
  uint64_t triangles = 0;
  next_resident_.Clear();
  for (const RetrievedLod& lod : last_result_) {
    triangles += lod.triangle_count;
    const bool already_resident =
        delta_enabled_ && resident_.Find(lod.model) != nullptr;
    if (!already_resident) {
      HDOV_RETURN_IF_ERROR(models_.Fetch(lod.model));
      ++fetched;
    }
    HDOV_RETURN_IF_ERROR(next_resident_.Emplace(
        lod.model,
        ResidentEntry{lod.lod_level, lod.byte_size, lod.triangle_count}));
  }
  resident_.swap(next_resident_);

  meter.Finish(triangles, fetched, resident_.bytes(), options_.render,
               grid_->ClampedCellForPoint(viewpoint.position), &flight,
               result);
  return Status::OK();
}

void NaiveSystem::ResetRuntime() {
  resident_.Clear();
  last_result_.clear();
  cached_list_.clear();
  current_cell_ = kInvalidCell;
}

IoStats NaiveSystem::TotalIoStats() const {
  IoStats s = list_device_.stats();
  s += model_device_.stats();
  return s;
}

void NaiveSystem::ResetIoStats() {
  list_device_.ResetStats();
  model_device_.ResetStats();
  clock_.Reset();
}

}  // namespace hdov
