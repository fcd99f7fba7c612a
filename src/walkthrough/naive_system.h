// NaiveSystem: the (cell, list-of-objects) baseline of §3/§5.3 — each
// viewing cell stores a flat list of its visible objects (with their DoV),
// and a query reads the whole list and retrieves object LoDs only (no
// hierarchy, no internal LoDs, no early termination).

#ifndef HDOV_WALKTHROUGH_NAIVE_SYSTEM_H_
#define HDOV_WALKTHROUGH_NAIVE_SYSTEM_H_

#include <memory>

#include "common/result.h"
#include "scene/cell_grid.h"
#include "storage/model_store.h"
#include "storage/paged_file.h"
#include "visibility/precompute.h"
#include "walkthrough/render_model.h"
#include "walkthrough/resident_set.h"
#include "walkthrough/walkthrough_system.h"

namespace hdov {

struct NaiveOptions {
  RenderCostModel render;
  DiskModel disk;
};

class NaiveSystem : public WalkthroughSystem {
 public:
  static Result<std::unique_ptr<NaiveSystem>> Create(
      const Scene* scene, const CellGrid* grid, const VisibilityTable* table,
      const NaiveOptions& options);

  std::string name() const override { return "naive"; }
  Status RenderFrame(const Viewpoint& viewpoint, FrameResult* result) override;
  void ResetRuntime() override;
  const std::vector<RetrievedLod>& last_result() const override {
    return last_result_;
  }
  IoStats TotalIoStats() const override;
  void ResetIoStats() override;

  SimClock& clock() { return clock_; }
  PageDevice& list_device() { return list_device_; }

  // One query: reads the cell list and reports the LoDs to retrieve;
  // optionally fetches their model data.
  Status Query(const Vec3& position, bool fetch_models,
               std::vector<RetrievedLod>* result);

 private:
  NaiveSystem(const Scene* scene, const CellGrid* grid,
              const NaiveOptions& options);

  void RegisterTelemetry() override;

  const Scene* scene_;
  const CellGrid* grid_;
  NaiveOptions options_;

  SimClock clock_;
  PageDevice list_device_;
  PageDevice model_device_;
  ModelStore models_;
  PagedFile lists_;
  std::vector<Extent> cell_extents_;
  std::vector<std::vector<ModelId>> object_models_;

  CellId current_cell_ = kInvalidCell;
  std::vector<std::pair<ObjectId, float>> cached_list_;  // Current cell.
  // Models the last frame kept, one slot per ModelId; RenderFrame writes
  // the next frame's set into next_resident_ and swaps the two.
  ResidentSet resident_;
  ResidentSet next_resident_;
  std::vector<RetrievedLod> last_result_;
};

}  // namespace hdov

#endif  // HDOV_WALKTHROUGH_NAIVE_SYSTEM_H_
