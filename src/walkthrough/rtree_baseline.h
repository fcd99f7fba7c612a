// RTreeBaseline: the R-tree window-query walkthrough shared by REVIEW
// (review_system.h) and the LoD-R-tree (lodr_system.h). It owns a
// disk-resident packed R-tree over object MBRs, one registered model per
// object LoD, a complement (delta) fetch that skips objects resident at
// the wanted or a finer LoD, and distance-based semantic cache eviction.
// The two baselines differ only in their selection rule: which objects a
// frame draws and at which LoD. Both rules live in rtree_baseline.cc.

#ifndef HDOV_WALKTHROUGH_RTREE_BASELINE_H_
#define HDOV_WALKTHROUGH_RTREE_BASELINE_H_

#include <optional>
#include <vector>

#include "rtree/rtree.h"
#include "storage/model_store.h"
#include "walkthrough/render_model.h"
#include "walkthrough/resident_set.h"
#include "walkthrough/walkthrough_system.h"

namespace hdov {

struct RTreeBaselineOptions {
  // Objects farther than this from the viewpoint are evicted from the
  // model cache (semantic replacement).
  double cache_distance = 600.0;

  RTreeOptions rtree;
  RenderCostModel render;
  DiskModel disk;
};

class RTreeBaseline : public WalkthroughSystem {
 public:
  Status RenderFrame(const Viewpoint& viewpoint, FrameResult* result) final;
  void ResetRuntime() final;
  const std::vector<RetrievedLod>& last_result() const final {
    return last_result_;
  }
  IoStats TotalIoStats() const final;
  void ResetIoStats() final;

  SimClock& clock() { return clock_; }

 protected:
  // An object to draw and the LoD level it wants (lower = finer; clamped
  // to the object's chain).
  struct Pick {
    ObjectId id;
    uint32_t level;
  };

  RTreeBaseline(const Scene* scene, const RTreeBaselineOptions& options);

  // Packs the R-tree over the scene's object MBRs and registers every
  // object LoD with the model store. Each factory calls it once.
  Status Build();

  // The selection rule: the objects to draw and the LoD of each, in fetch
  // order (the order drives the model device's seek billing). Runs all of
  // the frame's window queries, so they precede every model fetch.
  virtual Status Select(const Viewpoint& viewpoint,
                        std::vector<Pick>* picks) = 0;

  Status WindowQuery(const Aabb& window, std::vector<uint64_t>* ids) const {
    return packed_->WindowQuery(window, ids);
  }
  const Scene& scene() const { return *scene_; }

 private:
  void RegisterTelemetry() override;

  const Scene* scene_;
  RTreeBaselineOptions options_;

  SimClock clock_;
  PageDevice index_device_;
  PageDevice model_device_;
  ModelStore models_;
  std::optional<PackedRTree> packed_;
  std::vector<std::vector<ModelId>> object_models_;

  // One slot per ObjectId: the LoD level resident and its bytes.
  ResidentSet resident_;
  std::vector<RetrievedLod> last_result_;
};

}  // namespace hdov

#endif  // HDOV_WALKTHROUGH_RTREE_BASELINE_H_
