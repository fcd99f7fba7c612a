#include "walkthrough/visual_system.h"

#include <algorithm>
#include <optional>

#include "persist/world_codec.h"
#include "telemetry/trace_context.h"

namespace hdov {

VisualSystem::VisualSystem(const Scene* scene, const CellGrid* grid,
                           const VisualOptions& options)
    : scene_(scene), grid_(grid), options_(options),
      tree_device_(std::make_unique<PageDevice>(options.disk, &clock_)),
      store_device_(std::make_unique<PageDevice>(options.disk, &clock_)),
      model_device_(std::make_unique<PageDevice>(options.disk, &clock_)),
      models_(std::make_unique<ModelStore>(model_device_.get())) {}

// Shared tail of the three factories: wire the searcher, the optional
// tree cache and the async prefetcher, then zero every simulated counter
// and the disk-head trackers so measured workloads start from an identical
// state on every path.
Status VisualSystem::FinishConstruction(
    std::function<BufferPool*(SessionDeviceRole)> warm_pool) {
  searcher_ = std::make_unique<HdovSearcher>(tree_.get(), scene_,
                                             models_.get(),
                                             tree_device_.get());
  if (options_.tree_cache_pages > 0) {
    // One shard: a global LRU over the session's own tree pages.
    tree_cache_ = std::make_unique<BufferPool>(
        tree_device_.get(),
        BufferPoolOptions{.capacity_pages = options_.tree_cache_pages,
                          .shards = 1});
    searcher_->set_tree_cache(tree_cache_.get());
  }
  if (options_.prefetch == prefetch::PrefetchMode::kAsync) {
    prefetch::PrefetcherWiring wiring;
    wiring.scene = scene_;
    wiring.grid = grid_;
    wiring.tree = tree_;
    wiring.scheme = options_.scheme;
    store_->EncodeMeta(&wiring.store_meta);
    wiring.models = models_.get();
    wiring.tree_device = tree_device_.get();
    wiring.store_device = store_device_.get();
    wiring.model_device = model_device_.get();
    if (options_.prefetch_queue != nullptr) {
      wiring.queue = options_.prefetch_queue;
    } else {
      prefetch::FetchQueueOptions qopt;
      qopt.workers = options_.prefetch_workers;
      own_queue_ = std::make_unique<prefetch::AsyncFetchQueue>(qopt);
      wiring.queue = own_queue_.get();
    }
    wiring.warm_pool = std::move(warm_pool);
    wiring.is_resident = [this](const RetrievedLod& lod) {
      const ResidentEntry* held = resident_.Find(ResidentSlot(lod));
      return held != nullptr && held->lod_level <= lod.lod_level;
    };
    HDOV_ASSIGN_OR_RETURN(prefetcher_, prefetch::Prefetcher::Create(wiring));
  }
  const size_t slots = scene_->size() + tree_->num_nodes();
  resident_ = ResidentSet(slots);
  next_resident_ = ResidentSet(slots);
  prefetch_loaded_ = ResidentSet(slots);
  tree_device_->ResetAccessTracker();
  store_device_->ResetAccessTracker();
  model_device_->ResetAccessTracker();
  ResetIoStats();
  return Status::OK();
}

Result<std::unique_ptr<VisualSystem>> VisualSystem::Create(
    const Scene* scene, const CellGrid* grid, const VisibilityTable* table,
    const VisualOptions& options) {
  if (grid->num_cells() != table->num_cells()) {
    return Status::InvalidArgument(
        "visual: grid and visibility table disagree on cell count");
  }
  auto system = std::unique_ptr<VisualSystem>(
      new VisualSystem(scene, grid, options));
  // Build and pack mutate the tree; afterwards it is frozen behind a
  // shared const handle (sessions of a server may alias it).
  HDOV_ASSIGN_OR_RETURN(
      HdovTree built,
      HdovBuilder::Build(*scene, system->models_.get(), options.build));
  HDOV_RETURN_IF_ERROR(built.Pack(system->tree_device_.get()));
  system->tree_ = std::make_shared<const HdovTree>(std::move(built));
  HDOV_ASSIGN_OR_RETURN(
      system->store_,
      BuildStore(options.scheme, *system->tree_, *table,
                 system->store_device_.get(), options.build_threads));
  HDOV_RETURN_IF_ERROR(system->FinishConstruction());
  return system;
}

Result<std::unique_ptr<VisualSystem>> VisualSystem::CreateFromSnapshot(
    const SnapshotLoader& snapshot, const Scene* scene, const CellGrid* grid,
    const VisualOptions& options, SnapshotLoadMode mode) {
  if (snapshot.page_size() != options.disk.page_size) {
    return Status::InvalidArgument(
        "visual: snapshot page size does not match the disk model");
  }
  auto system = std::unique_ptr<VisualSystem>(
      new VisualSystem(scene, grid, options));
  const std::string scheme = StorageSchemeName(options.scheme);
  if (mode == SnapshotLoadMode::kFileBacked) {
    HDOV_ASSIGN_OR_RETURN(
        system->tree_device_,
        snapshot.OpenDevice(kSectionTreeDevice, options.disk,
                            &system->clock_));
    HDOV_ASSIGN_OR_RETURN(
        system->store_device_,
        snapshot.OpenDevice(StoreDeviceSection(scheme), options.disk,
                            &system->clock_));
    HDOV_ASSIGN_OR_RETURN(
        system->model_device_,
        snapshot.OpenDevice(kSectionModelDevice, options.disk,
                            &system->clock_));
  } else {
    HDOV_RETURN_IF_ERROR(snapshot.RestoreDevice(kSectionTreeDevice,
                                                system->tree_device_.get()));
    HDOV_RETURN_IF_ERROR(snapshot.RestoreDevice(
        StoreDeviceSection(scheme), system->store_device_.get()));
    HDOV_RETURN_IF_ERROR(snapshot.RestoreDevice(kSectionModelDevice,
                                                system->model_device_.get()));
  }
  system->models_ =
      std::make_unique<ModelStore>(system->model_device_.get());
  HDOV_ASSIGN_OR_RETURN(std::string model_meta,
                        snapshot.ReadBlob(kSectionModelMeta));
  HDOV_RETURN_IF_ERROR(system->models_->RestoreMeta(model_meta));
  HDOV_ASSIGN_OR_RETURN(std::string manifest,
                        snapshot.ReadBlob(kSectionTreeManifest));
  HDOV_ASSIGN_OR_RETURN(
      HdovTree loaded,
      HdovTree::FromManifest(system->tree_device_.get(), manifest));
  system->tree_ = std::make_shared<const HdovTree>(std::move(loaded));
  HDOV_ASSIGN_OR_RETURN(std::string store_meta,
                        snapshot.ReadBlob(StoreMetaSection(scheme)));
  HDOV_ASSIGN_OR_RETURN(
      system->store_,
      LoadStore(options.scheme, *system->tree_, store_meta,
                system->store_device_.get()));
  HDOV_RETURN_IF_ERROR(system->FinishConstruction());
  return system;
}

Result<std::unique_ptr<VisualSystem>> VisualSystem::CreateSessionView(
    const SharedWorldView& world, const VisualOptions& options) {
  if (world.scene == nullptr || world.grid == nullptr ||
      world.tree == nullptr || !world.make_device) {
    return Status::InvalidArgument(
        "visual: shared world view is missing a component");
  }
  auto system = std::unique_ptr<VisualSystem>(
      new VisualSystem(world.scene, world.grid, options));
  HDOV_ASSIGN_OR_RETURN(
      system->tree_device_,
      world.make_device(SessionDeviceRole::kTree, &system->clock_));
  HDOV_ASSIGN_OR_RETURN(
      system->store_device_,
      world.make_device(SessionDeviceRole::kStore, &system->clock_));
  HDOV_ASSIGN_OR_RETURN(
      system->model_device_,
      world.make_device(SessionDeviceRole::kModel, &system->clock_));
  system->models_ =
      std::make_unique<ModelStore>(system->model_device_.get());
  HDOV_RETURN_IF_ERROR(system->models_->RestoreMeta(world.model_meta));
  system->tree_ = world.tree;
  HDOV_ASSIGN_OR_RETURN(
      system->store_,
      LoadStore(options.scheme, *system->tree_, world.store_meta,
                system->store_device_.get()));
  HDOV_RETURN_IF_ERROR(system->FinishConstruction(world.warm_pool));
  return system;
}

void VisualSystem::RegisterTelemetry() {
  telemetry::MetricsRegistry& m = telemetry()->metrics();
  const std::string& p = telemetry_prefix();
  tree_device_->RegisterWith(&m, p + ".io.tree");
  store_device_->RegisterWith(&m, p + ".io.store");
  model_device_->RegisterWith(&m, p + ".io.model");
  store_->RegisterTelemetry(&m, p);
  if (tree_cache_ != nullptr) {
    tree_cache_->RegisterWith(&m, p + ".cache.tree");
  }
  if (prefetcher_ != nullptr) {
    prefetcher_->RegisterTelemetry(&m, p);
  }
  ctr_queries_ = m.GetCounter(p + ".search.queries");
  ctr_nodes_visited_ = m.GetCounter(p + ".search.nodes_visited");
  ctr_vpages_fetched_ = m.GetCounter(p + ".search.vpages_fetched");
  ctr_hidden_pruned_ = m.GetCounter(p + ".search.hidden_pruned");
  ctr_internal_terminations_ =
      m.GetCounter(p + ".search.internal_terminations");
  // The node-fanout distribution is a build-time property; fill it once.
  telemetry::Histogram* fanout = m.GetHistogram(
      p + ".tree.node_fanout",
      telemetry::LinearBuckets(2.0, 2.0,
                               std::max<size_t>(2, tree_->fanout() / 2 + 1)));
  for (size_t i = 0; i < tree_->num_nodes(); ++i) {
    fanout->Observe(static_cast<double>(tree_->node(i).entries.size()));
  }
}

void VisualSystem::UnregisterTelemetry() {
  if (tree_cache_ != nullptr) {
    tree_cache_->UnregisterViews();
  }
}

void VisualSystem::CountQuery(const SearchStats& stats) {
  ctr_queries_->Increment();
  ctr_nodes_visited_->Add(stats.nodes_visited);
  ctr_vpages_fetched_->Add(stats.vpages_fetched);
  ctr_hidden_pruned_->Add(stats.hidden_entries_pruned);
  ctr_internal_terminations_->Add(stats.internal_terminations);
}

Status VisualSystem::Query(const Vec3& position, bool fetch_models,
                           std::vector<RetrievedLod>* result,
                           SearchStats* stats) {
  const CellId cell = grid_->ClampedCellForPoint(position);
  SearchOptions search = options_.search;
  search.eta = options_.eta;
  const bool telemetry_on = TelemetryOn();
  SearchStats local_stats;
  SearchStats* stats_out =
      stats != nullptr ? stats : (telemetry_on ? &local_stats : nullptr);
  // A standalone query (the Figs. 7-9 bench path) emits its own record.
  std::optional<FrameMeter> meter;
  if (telemetry_on && !in_frame_) {
    meter.emplace(this, clock_, *tree_device_, store_device_.get(),
                  *model_device_);
  }
  if (telemetry_on) {
    // Trace sampling: only 1-in-N queries carry a full span tree; the
    // flight recorder still sees every page/pool event regardless.
    telemetry::TraceRecorder& tracer = telemetry()->tracer();
    if (tracer.SampleQuery()) {
      search.trace = &tracer;
    }
  }
  HDOV_RETURN_IF_ERROR(
      searcher_->Search(store_.get(), cell, search, result, stats_out));
  if (fetch_models) {
    telemetry::StageTraceScope stage(telemetry::TraceStage::kFetch);
    for (const RetrievedLod& lod : *result) {
      HDOV_RETURN_IF_ERROR(models_->Fetch(lod.model));
    }
  }
  if (telemetry_on) {
    CountQuery(*stats_out);
  }
  if (meter.has_value()) {
    FrameResult r;
    meter->Bill(&r);
    r.search = *stats_out;
    r.models_fetched = fetch_models ? result->size() : 0;
    EmitFrameRecord(r, cell, "query");
  }
  return Status::OK();
}

Status VisualSystem::QueryWithHeuristic(const Vec3& position,
                                        TerminationHeuristic heuristic,
                                        std::vector<RetrievedLod>* result) {
  const CellId cell = grid_->ClampedCellForPoint(position);
  SearchOptions search = options_.search;
  search.eta = options_.eta;
  search.heuristic = heuristic;
  HDOV_RETURN_IF_ERROR(
      searcher_->Search(store_.get(), cell, search, result, nullptr));
  for (const RetrievedLod& lod : *result) {
    HDOV_RETURN_IF_ERROR(models_->Fetch(lod.model));
  }
  return Status::OK();
}

Status VisualSystem::RenderFrame(const Viewpoint& viewpoint,
                                 FrameResult* result) {
  telemetry::FlightFrameScope flight(FlightCode(), NextFlightFrame());
  const CellId frame_cell = grid_->ClampedCellForPoint(viewpoint.position);
  if (prefetcher_ != nullptr) {
    // Async pipeline: runs staged at the end of the previous frame have
    // completed in the frame gap — publish them resident before anything
    // bills.
    prefetcher_->BeginFrame();
  }
  const FrameMeter meter(this, clock_, *tree_device_, store_device_.get(),
                         *model_device_);
  const uint64_t cache_hits0 =
      tree_cache_ != nullptr ? tree_cache_->stats().hits : 0;
  const uint64_t cache_misses0 =
      tree_cache_ != nullptr ? tree_cache_->stats().misses : 0;

  in_frame_ = true;
  struct InFrameGuard {
    bool* flag;
    ~InFrameGuard() { *flag = false; }
  } in_frame_guard{&in_frame_};

  HDOV_RETURN_IF_ERROR(
      Query(viewpoint.position, /*fetch_models=*/false, &last_result_,
            &result->search));

  // Delta search: a representation whose owner is already resident at the
  // required (or a finer) LoD is reused; otherwise the requested level is
  // fetched. Afterwards only the current working set stays resident
  // (semantic replacement). Lookups read the last frame's set only, and
  // an owner repeated in one result keeps its last entry.
  size_t fetched = 0;
  uint64_t triangles = 0;
  {
    telemetry::StageTraceScope stage(telemetry::TraceStage::kFetch);
    next_resident_.Clear();
    for (const RetrievedLod& lod : last_result_) {
      const uint64_t slot = ResidentSlot(lod);
      ResidentEntry entry{lod.lod_level, lod.byte_size, lod.triangle_count};
      const ResidentEntry* held = resident_.Find(slot);
      const bool reusable =
          delta_enabled_ && held != nullptr &&
          held->lod_level <= lod.lod_level;  // Finer or equal resident.
      if (reusable) {
        entry = *held;  // Render the (possibly finer) resident copy.
      } else {
        HDOV_RETURN_IF_ERROR(models_->Fetch(lod.model));
        ++fetched;
      }
      triangles += entry.triangle_count;
      HDOV_RETURN_IF_ERROR(next_resident_.Put(slot, entry));
    }
  }
  resident_.swap(next_resident_);

  // Sync mode: on a frame that fetched nothing, load the next few
  // representations of the cell the walker looks into, on this frame's
  // clock. A new predicted cell replaces the plan (and drops what the old
  // one loaded); the plan's cell is recorded only once its search
  // succeeds. Prefetched representations are pinned in the resident set
  // so the eventual cell flip finds them loaded.
  if (options_.prefetch == prefetch::PrefetchMode::kSync &&
      options_.prefetch_models_per_frame > 0 && delta_enabled_ &&
      fetched == 0) {
    telemetry::StageTraceScope stage(telemetry::TraceStage::kPrefetch);
    const prefetch::CellPrediction prediction =
        prefetch::VelocityPredictor(grid_).PredictFromLook(viewpoint,
                                                           frame_cell);
    if (prediction.valid) {
      if (prediction.cell != sync_plan_cell_) {
        sync_plan_cell_ = kInvalidCell;
        sync_next_ = 0;
        prefetch_loaded_.Clear();
        SearchOptions search = options_.search;
        search.eta = options_.eta;
        HDOV_RETURN_IF_ERROR(searcher_->Search(
            store_.get(), prediction.cell, search, &sync_plan_, nullptr));
        sync_plan_cell_ = prediction.cell;
      }
      size_t budget = options_.prefetch_models_per_frame;
      while (budget > 0 && sync_next_ < sync_plan_.size()) {
        const RetrievedLod& lod = sync_plan_[sync_next_++];
        const uint64_t slot = ResidentSlot(lod);
        const ResidentEntry* held = resident_.Find(slot);
        if (held != nullptr && held->lod_level <= lod.lod_level) {
          continue;  // Already resident at sufficient detail.
        }
        held = prefetch_loaded_.Find(slot);
        if (held != nullptr && held->lod_level <= lod.lod_level) {
          continue;  // Already prefetched at sufficient detail.
        }
        HDOV_RETURN_IF_ERROR(models_->Fetch(lod.model));
        HDOV_RETURN_IF_ERROR(prefetch_loaded_.Put(
            slot,
            ResidentEntry{lod.lod_level, lod.byte_size, lod.triangle_count}));
        ++fetched;
        --budget;
      }
    }
  }
  for (const ResidentSet::Item& item : prefetch_loaded_) {
    // Keep current-result entries as-is.
    HDOV_RETURN_IF_ERROR(resident_.Emplace(item.owner, item.entry));
  }

  // Async pipeline: end-of-frame speculation toward the predicted next
  // cell. Billing inside is diverted (frame counters and the clock do not
  // move); the discovered page runs are staged for residency at the next
  // BeginFrame and handed to the background queue to warm for real.
  if (prefetcher_ != nullptr) {
    telemetry::StageTraceScope stage(telemetry::TraceStage::kPrefetch);
    SearchOptions search = options_.search;
    search.eta = options_.eta;
    HDOV_RETURN_IF_ERROR(
        prefetcher_->EndFrame(viewpoint, frame_cell, search));
  }

  telemetry::StageTraceScope render_stage(telemetry::TraceStage::kRender);
  if (tree_cache_ != nullptr) {
    const uint64_t hits = tree_cache_->stats().hits - cache_hits0;
    const uint64_t misses = tree_cache_->stats().misses - cache_misses0;
    result->cache_hits = hits;
    result->cache_misses = misses;
    result->cache_hit_rate =
        hits + misses == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
  meter.Finish(triangles, fetched, resident_.bytes(), options_.render,
               frame_cell, &flight, result);
  return Status::OK();
}

void VisualSystem::ResetRuntime() {
  resident_.Clear();
  last_result_.clear();
  sync_plan_cell_ = kInvalidCell;  // The next plan resets list and cursor.
  prefetch_loaded_.Clear();
  if (prefetcher_ != nullptr) {
    prefetcher_->Reset();
  }
  if (tree_cache_ != nullptr) {
    tree_cache_->Clear();
  }
}

IoStats VisualSystem::TotalIoStats() const {
  IoStats s = tree_device_->stats();
  s += store_device_->stats();
  s += model_device_->stats();
  return s;
}

void VisualSystem::ResetIoStats() {
  tree_device_->ResetStats();
  store_device_->ResetStats();
  model_device_->ResetStats();
  clock_.Reset();
}

}  // namespace hdov
