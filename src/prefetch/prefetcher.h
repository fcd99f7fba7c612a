// Prefetcher: the asynchronous I/O pipeline with predictive prefetch
// (docs/prefetch.md). One prefetcher serves one VisualSystem; it owns the
// per-frame plan (which cell is being warmed), the speculative search
// machinery that discovers the pages that cell needs, and the simulated
// overlap accounting built on the storage hooks in storage/page_device.h.
//
// Async pipeline, one frame:
//   EndFrame(N):  predict the next cell from the motion model. On a plan
//                 change, invalidate the old plan (residency dropped,
//                 queued warms cancelled), then run a speculative search
//                 of the predicted cell — against a private store/searcher
//                 pair over the SAME devices — with billing DIVERTED into
//                 per-device sinks, plus a budget of model warms. The
//                 sink's recorded page runs are staged and handed to the
//                 AsyncFetchQueue so the real bytes warm in the
//                 background.
//   BeginFrame(N+1): the staged runs become RESIDENT (one frame of
//                 simulated latency: I/O issued at end of frame N
//                 completes during the frame gap). Frame N+1's billed
//                 reads that land entirely on resident pages are consumed
//                 for free by the device's residency gate.
//
// Only async mode builds a Prefetcher. Sync mode is a plain step of
// VisualSystem::RenderFrame (it needs nothing from here but the
// look-direction prediction).
//
// Determinism: everything the simulation sees — the speculative search,
// the diverted costs, the residency sets — is a pure function of the
// viewpoint sequence. The background queue only moves real bytes.

#ifndef HDOV_PREFETCH_PREFETCHER_H_
#define HDOV_PREFETCH_PREFETCHER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "hdov/builder.h"
#include "hdov/search.h"
#include "prefetch/fetch_queue.h"
#include "prefetch/predictor.h"
#include "storage/model_store.h"
#include "storage/page_device.h"
#include "telemetry/metrics.h"

namespace hdov::prefetch {

// Model representations warmed per plan, front of the predicted cell's
// retrieval list first.
inline constexpr size_t kModelsPerPlan = 32;

// Everything a prefetcher borrows from its VisualSystem. All pointers
// must outlive the prefetcher; the devices additionally must outlive any
// queue it issued warms into (drain before teardown — the prefetcher's
// destructor does).
struct PrefetcherWiring {
  const Scene* scene = nullptr;
  const CellGrid* grid = nullptr;
  std::shared_ptr<const HdovTree> tree;
  StorageScheme scheme = StorageScheme::kIndexedVertical;
  // VisibilityStore::EncodeMeta blob; the speculative pass reattaches its
  // own store instance from it so the main searcher's state (segment
  // caches, cursors) is never disturbed.
  std::string store_meta;
  ModelStore* models = nullptr;  // Non-const: model warms are Fetch calls.
  PageDevice* tree_device = nullptr;
  PageDevice* store_device = nullptr;
  PageDevice* model_device = nullptr;
  // Background warm queue. May be shared across sessions — cancellation
  // is scoped to this prefetcher.
  AsyncFetchQueue* queue = nullptr;
  // Optional shared cache to warm instead of raw device reads, per role
  // (servers pass their BufferPools). Null / null-returning: warm
  // via the device's ReadRaw.
  std::function<BufferPool*(SessionDeviceRole)> warm_pool;
  // Optional: true when the caller already holds this representation at
  // sufficient detail (the delta search would not refetch it), so the
  // model-warm budget skips it. Null: warm everything in budget.
  std::function<bool(const RetrievedLod&)> is_resident;
};

// Cumulative counters (never reset by plan changes; sampled by telemetry
// views and the bench ablation).
struct PrefetcherStats {
  uint64_t plans = 0;            // Speculative passes run.
  uint64_t replans = 0;          // Plans that displaced a live plan.
  uint64_t issued_pages = 0;     // Pages staged toward residency.
  uint64_t used_pages = 0;       // Consumed unbilled by later reads.
  uint64_t used_runs = 0;
  uint64_t cancelled_pages = 0;  // Resident/staged pages invalidated.
  uint64_t models_warmed = 0;
  // Simulated I/O cost diverted off the frame clock — the overlap the
  // pipeline models.
  double overlap_cost_millis = 0.0;

  // (issued - used) / issued: the fraction of prefetched pages that never
  // satisfied a read (misprediction + over-fetch). 0 when nothing issued.
  double WastedRatio() const {
    if (issued_pages == 0) {
      return 0.0;
    }
    const uint64_t used = used_pages < issued_pages ? used_pages
                                                    : issued_pages;
    return static_cast<double>(issued_pages - used) /
           static_cast<double>(issued_pages);
  }
};

class Prefetcher {
 public:
  // Loads the speculative store from wiring.store_meta and installs
  // residency gates on the three devices (removed on destruction).
  static Result<std::unique_ptr<Prefetcher>> Create(
      const PrefetcherWiring& wiring);

  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  // Publishes the previous frame's staged runs as resident. Call at the
  // top of RenderFrame.
  void BeginFrame();

  // Runs the predict / invalidate / speculate / stage step. Call at the
  // end of RenderFrame with the frame's viewpoint, its cell, and the
  // session's effective SearchOptions (eta resolved).
  Status EndFrame(const Viewpoint& viewpoint, CellId current_cell,
                  const SearchOptions& search);

  // Drops the plan, residency and queued warms; resets the motion model.
  // Call from ResetRuntime. Stats stay cumulative.
  void Reset();

  // Cumulative counters; used_* are folded in live from the residency
  // gates.
  PrefetcherStats stats() const;

  // Registers read-through views (<prefix>.prefetch.*) over stats().
  // The prefetcher must outlive the registration.
  void RegisterTelemetry(telemetry::MetricsRegistry* registry,
                         const std::string& prefix) const;

  CellId planned_cell() const { return planned_cell_; }

 private:
  explicit Prefetcher(const PrefetcherWiring& wiring);

  PageDevice* device(SessionDeviceRole role) const;
  // Drops residency + staged runs + queued warms of the current plan,
  // recording the kPrefetchCancel event. Safe when there is no plan.
  void InvalidatePlan();
  // Moves one sink's recorded runs into the staged set and the warm
  // queue.
  void StageSink(SessionDeviceRole role);

  PrefetcherWiring wiring_;
  VelocityPredictor predictor_;
  uint16_t flight_code_;

  // Speculative machinery: a private store instance over the shared store
  // device plus a private searcher, which reads the same pages as the
  // caller's, so the warmed set matches.
  std::unique_ptr<VisibilityStore> spec_store_;
  std::unique_ptr<HdovSearcher> spec_searcher_;
  std::vector<RetrievedLod> spec_result_;

  // Per-role accounting: the diversion sink (live only during the
  // speculative pass), the staged runs awaiting publication, and the
  // residency gate installed on the device.
  PrefetchSink sinks_[kNumSessionDeviceRoles];
  std::vector<std::pair<PageId, uint64_t>> staged_[kNumSessionDeviceRoles];
  PrefetchResidency residency_[kNumSessionDeviceRoles];
  bool gates_installed_ = false;

  CellId planned_cell_ = kInvalidCell;
  PrefetcherStats stats_;  // used_* folded in by stats().
};

}  // namespace hdov::prefetch

#endif  // HDOV_PREFETCH_PREFETCHER_H_
