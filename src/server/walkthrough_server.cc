#include "server/walkthrough_server.h"

#include <chrono>
#include <map>
#include <utility>

#include "common/thread_pool.h"
#include "hdov/builder.h"
#include "persist/world_codec.h"
#include "server/session_device.h"

namespace hdov {

namespace {

// Shards of each shared page cache: enough that the render workers rarely
// meet on one shard's mutex.
constexpr size_t kCacheShards = 8;

double WallMillisSince(
    const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Result<std::unique_ptr<WalkthroughServer>> WalkthroughServer::Open(
    const ServerOptions& options) {
  std::unique_ptr<WalkthroughServer> server(new WalkthroughServer(options));
  HDOV_RETURN_IF_ERROR(server->LoadWorld());
  server->pool_ = std::make_unique<ThreadPool>(
      ThreadPool::ResolveThreads(options.workers));
  return server;
}

Status WalkthroughServer::LoadWorld() {
  HDOV_ASSIGN_OR_RETURN(
      loader_, SnapshotLoader::Open(options_.snapshot_path, &persist_));
  if (loader_->page_size() != options_.visual.disk.page_size) {
    return Status::InvalidArgument(
        "server: snapshot page size does not match the disk model");
  }

  // Shared world, decoded once: scene, grid, tree, store/model metadata.
  HDOV_ASSIGN_OR_RETURN(std::string scene_bytes,
                        loader_->ReadBlob(kSectionScene));
  HDOV_ASSIGN_OR_RETURN(scene_, DecodeScene(scene_bytes));
  HDOV_ASSIGN_OR_RETURN(std::string grid_bytes,
                        loader_->ReadBlob(kSectionCellGrid));
  HDOV_ASSIGN_OR_RETURN(CellGridOptions gopt,
                        DecodeCellGridOptions(grid_bytes));
  HDOV_ASSIGN_OR_RETURN(grid_, CellGrid::Build(scene_.bounds(), gopt));

  // The base devices are opened once and, after the tree decode below,
  // only ever touched through the const unbilled read path; billing
  // happens on each session's private SessionDevices.
  HDOV_ASSIGN_OR_RETURN(
      tree_base_, loader_->OpenDevice(kSectionTreeDevice,
                                      options_.visual.disk, &load_clock_));
  const std::string scheme = StorageSchemeName(options_.visual.scheme);
  HDOV_ASSIGN_OR_RETURN(
      store_base_, loader_->OpenDevice(StoreDeviceSection(scheme),
                                       options_.visual.disk, &load_clock_));
  HDOV_ASSIGN_OR_RETURN(
      model_base_, loader_->OpenDevice(kSectionModelDevice,
                                       options_.visual.disk, &load_clock_));

  HDOV_ASSIGN_OR_RETURN(std::string manifest,
                        loader_->ReadBlob(kSectionTreeManifest));
  HDOV_ASSIGN_OR_RETURN(HdovTree tree,
                        HdovTree::FromManifest(tree_base_.get(), manifest));
  tree_ = std::make_shared<const HdovTree>(std::move(tree));
  tree_base_->ResetStats();  // The decode's billing is not a workload.

  HDOV_ASSIGN_OR_RETURN(store_meta_,
                        loader_->ReadBlob(StoreMetaSection(scheme)));
  HDOV_ASSIGN_OR_RETURN(model_meta_, loader_->ReadBlob(kSectionModelMeta));

  if (options_.shared_cache_pages > 0) {
    BufferPoolOptions popt;
    popt.capacity_pages = options_.shared_cache_pages;
    popt.shards = kCacheShards;
    popt.flight_name = "server.pool.store";
    store_pool_ = std::make_unique<BufferPool>(store_base_.get(), popt);
    popt.flight_name = "server.pool.tree";
    tree_pool_ = std::make_unique<BufferPool>(tree_base_.get(), popt);
  }

  world_.scene = &scene_;
  world_.grid = &grid_;
  world_.tree = tree_;
  world_.store_meta = store_meta_;
  world_.model_meta = model_meta_;
  world_.make_device =
      [this](SessionDeviceRole role,
             SimClock* clock) -> Result<std::unique_ptr<PageDevice>> {
    const PageDevice* base = nullptr;
    BufferPool* cache = nullptr;
    switch (role) {
      case SessionDeviceRole::kTree:
        base = tree_base_.get();
        cache = tree_pool_.get();
        break;
      case SessionDeviceRole::kStore:
        base = store_base_.get();
        cache = store_pool_.get();
        break;
      case SessionDeviceRole::kModel:
        base = model_base_.get();
        break;  // Model fetches bill without data; no cache needed.
    }
    return std::unique_ptr<PageDevice>(
        new SessionDevice(base, cache, options_.visual.disk, clock));
  };
  if (options_.visual.prefetch == prefetch::PrefetchMode::kAsync) {
    // One warm queue for the whole server: sessions share its workers
    // (their speculative plans are independent; cancellation is scoped
    // per session) and their warms land in the shared pools, so one
    // session's prefetch serves co-located sessions too.
    prefetch::FetchQueueOptions qopt;
    qopt.workers = options_.visual.prefetch_workers;
    prefetch_queue_ = std::make_unique<prefetch::AsyncFetchQueue>(qopt);
    options_.visual.prefetch_queue = prefetch_queue_.get();
    world_.warm_pool = [this](SessionDeviceRole role) -> BufferPool* {
      switch (role) {
        case SessionDeviceRole::kTree:
          return tree_pool_.get();
        case SessionDeviceRole::kStore:
          return store_pool_.get();
        case SessionDeviceRole::kModel:
          return nullptr;  // Model pages bill without data; nothing to warm.
      }
      return nullptr;
    };
  }
  return Status::OK();
}

Status WalkthroughServer::AddSession(const Session& session) {
  if (session.frames.empty()) {
    return Status::InvalidArgument("server: empty session");
  }
  sessions_.push_back(session);
  return Status::OK();
}

Result<ServerRunStats> WalkthroughServer::Play() {
  if (sessions_.empty()) {
    return Status::InvalidArgument("server: no sessions registered");
  }

  // One private view per session; construction is sequential, so even the
  // (one-time) store-meta reattachment does not race.
  struct Runner {
    Runner(std::unique_ptr<VisualSystem> view, const Session& session)
        : system(std::move(view)), player(system.get(), session) {}
    std::unique_ptr<VisualSystem> system;
    SessionPlayer player;
    Status status;  // First frame error, if any.
  };
  std::vector<Runner> runners;
  runners.reserve(sessions_.size());
  for (const Session& session : sessions_) {
    HDOV_ASSIGN_OR_RETURN(std::unique_ptr<VisualSystem> system,
                          VisualSystem::CreateSessionView(world_,
                                                          options_.visual));
    runners.emplace_back(std::move(system), session);
  }

  const BufferPoolStats store_cache0 =
      store_pool_ != nullptr ? store_pool_->stats() : BufferPoolStats();
  const BufferPoolStats tree_cache0 =
      tree_pool_ != nullptr ? tree_pool_->stats() : BufferPoolStats();

  ServerRunStats stats;
  const auto wall0 = std::chrono::steady_clock::now();

  // Lockstep rounds: every live session advances exactly one frame per
  // round, so each session still sees its frames strictly in order.
  for (;;) {
    // Group this round's frames by the cell they are about to query
    // (ordered map: the group layout is deterministic, and so are the
    // batch counters derived from it).
    std::map<CellId, std::vector<size_t>> by_cell;
    for (size_t i = 0; i < runners.size(); ++i) {
      const Runner& r = runners[i];
      if (r.status.ok() && !r.player.done()) {
        by_cell[grid_.ClampedCellForPoint(r.player.next_viewpoint().position)]
            .push_back(i);
      }
    }
    if (by_cell.empty()) {
      break;
    }
    ++stats.rounds;

    std::vector<std::vector<size_t>> groups;
    groups.reserve(by_cell.size());
    for (auto& [cell, members] : by_cell) {
      if (members.size() >= 2) {
        ++stats.batch_groups;
        stats.batched_frames += members.size();
      }
      groups.push_back(std::move(members));
    }

    // One task per group: members render back-to-back on one worker, so
    // the first miss on a shared V-page warms the cache for the rest.
    // Every frame of the round shares one enqueue timestamp (the round's
    // frames all become runnable here); dispatch is when a worker
    // actually reaches the frame, so queue wait covers both pool
    // scheduling delay and time spent behind earlier group members.
    const uint64_t enqueue_ns = telemetry::FlightNowNs();
    pool_->ParallelFor(groups.size(), [&](size_t /*slot*/, size_t g) {
      for (size_t idx : groups[g]) {
        Runner& r = runners[idx];
        FrameResult frame;
        r.status = r.player.PlayNext(enqueue_ns, &frame);
        if (!r.status.ok()) {
          return;
        }
      }
    });

    for (const Runner& r : runners) {
      if (!r.status.ok()) {
        return r.status;
      }
    }
  }

  stats.wall_ms = WallMillisSince(wall0);
  for (const Runner& r : runners) {
    ServerSessionRecord record;
    record.summary = r.player.Summary();
    record.io = r.system->TotalIoStats();
    record.sim_clock_ms = r.system->clock().NowMillis();
    record.frame_wall_ms = r.player.frame_wall_ms();
    record.frame_queue_wait_ms = r.player.frame_queue_wait_ms();
    record.stage_totals = r.player.stage_totals();
    stats.total_frames += record.summary.num_frames;
    stats.sessions.push_back(std::move(record));
  }
  if (store_pool_ != nullptr) {
    const BufferPoolStats now = store_pool_->stats();
    stats.store_cache.hits = now.hits - store_cache0.hits;
    stats.store_cache.misses = now.misses - store_cache0.misses;
    stats.store_cache.evictions = now.evictions - store_cache0.evictions;
  }
  if (tree_pool_ != nullptr) {
    const BufferPoolStats now = tree_pool_->stats();
    stats.tree_cache.hits = now.hits - tree_cache0.hits;
    stats.tree_cache.misses = now.misses - tree_cache0.misses;
    stats.tree_cache.evictions = now.evictions - tree_cache0.evictions;
  }
  sessions_.clear();
  return stats;
}

void WalkthroughServer::RollupInto(const ServerRunStats& stats,
                                   telemetry::MetricsRegistry* registry,
                                   const std::string& prefix) {
  for (const ServerSessionRecord& record : stats.sessions) {
    PublishSessionGauges(record.summary, registry, prefix);
  }
  registry->GetGauge(prefix + ".frames")
      ->Set(static_cast<double>(stats.total_frames));
  registry->GetGauge(prefix + ".rounds")
      ->Set(static_cast<double>(stats.rounds));
  registry->GetGauge(prefix + ".batch_groups")
      ->Set(static_cast<double>(stats.batch_groups));
  registry->GetGauge(prefix + ".batched_frames")
      ->Set(static_cast<double>(stats.batched_frames));
}

}  // namespace hdov
