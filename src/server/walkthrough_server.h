// WalkthroughServer: serves N concurrent walkthrough sessions from one
// file-backed world snapshot, opened read-only and opened once.
//
// What is shared (immutable or internally synchronized):
//   - the snapshot file handle and the three base FilePageDevices
//     (const read path only: pread + CRC, per-thread buffers),
//   - the decoded scene, cell grid, and packed HDoV-tree,
//   - the sharded page caches deduplicating real I/O (store + tree).
// What is per-session (no synchronization, no sharing):
//   - a VisualSystem view (searcher, V-page store, model store, resident
//     set) with three private SessionDevices billing a private SimClock
//     and private IoStats.
// Because each session's billed read sequence depends only on its own
// frames, its simulated counters are bit-identical to playing the same
// session alone — regardless of scheduling. See docs/threading.md.
//
// Scheduling: Play() advances all sessions in lockstep rounds of one
// frame each. Within a round, frames are grouped by the viewing cell
// their session is about to query; each group runs as one task, so
// co-located sessions execute back-to-back on one worker and the first
// one's V-page misses warm the shared cache for the rest (same-cell
// batching). Groups run in parallel across the worker pool, which Open
// starts once and every Play() reuses. The scheduler only groups and
// orders: a frame itself is played by the session's SessionPlayer
// (walkthrough/frame_loop.h), the same step solo playback uses.

#ifndef HDOV_SERVER_WALKTHROUGH_SERVER_H_
#define HDOV_SERVER_WALKTHROUGH_SERVER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "persist/snapshot.h"
#include "scene/cell_grid.h"
#include "scene/session.h"
#include "storage/buffer_pool.h"
#include "telemetry/trace_context.h"
#include "walkthrough/frame_loop.h"
#include "walkthrough/visual_system.h"

namespace hdov {

struct ServerOptions {
  std::string snapshot_path;
  // Per-session configuration; `visual.disk.page_size` must match the
  // snapshot and `visual.scheme` picks the store sections to serve.
  VisualOptions visual;
  // Shared read-cache capacity (pages) for each of the V-page store and
  // the tree device (8 shards each); 0 disables the caches (every miss
  // hits the file).
  size_t shared_cache_pages = 4096;
  // Render worker threads (0 = one per hardware thread, 1 = inline).
  uint32_t workers = 4;
};

// Everything Play() measured about one session. `summary` holds only
// simulated, deterministic values (identical to solo playback); the wall
// timings are real and vary run to run.
struct ServerSessionRecord {
  SessionSummary summary;
  IoStats io;               // The session's total simulated I/O.
  double sim_clock_ms = 0.0;
  // Real scheduler latency of each frame, split at the dispatch point:
  // queue wait is enqueue (round formation) to dispatch (a worker picks
  // the frame up), service is dispatch to completion.
  std::vector<double> frame_wall_ms;        // Service time per frame.
  std::vector<double> frame_queue_wait_ms;  // Queue wait per frame.
  // Where the session's total service time went, stage by stage
  // (exclusive wall-clock ns; see telemetry/trace_context.h).
  telemetry::StageBreakdown stage_totals;
};

struct ServerRunStats {
  std::vector<ServerSessionRecord> sessions;
  // Deterministic scheduler counters.
  uint64_t total_frames = 0;
  uint64_t rounds = 0;
  uint64_t batch_groups = 0;    // Round-groups holding >= 2 frames.
  uint64_t batched_frames = 0;  // Frames that rode in such groups.
  // Real-time measurements (nondeterministic; perfbench's serve workload
  // reads them, no bench report does).
  double wall_ms = 0.0;
  BufferPoolStats store_cache;  // Shared-cache traffic during the run.
  BufferPoolStats tree_cache;
};

class WalkthroughServer {
 public:
  // Opens the snapshot read-only and decodes the shared world once.
  static Result<std::unique_ptr<WalkthroughServer>> Open(
      const ServerOptions& options);

  WalkthroughServer(const WalkthroughServer&) = delete;
  WalkthroughServer& operator=(const WalkthroughServer&) = delete;

  // Registers a session to serve on the next Play(). Sessions are
  // independent; nothing about one leaks into another's billing.
  Status AddSession(const Session& session);
  size_t num_sessions() const { return sessions_.size(); }

  // Plays every registered session to completion and clears the roster.
  // Each session's frames run through its own SessionPlayer, the step
  // PlaySession loops over — so summaries match solo playback bit for
  // bit.
  Result<ServerRunStats> Play();

  const Scene& scene() const { return scene_; }
  const CellGrid& grid() const { return grid_; }
  const SharedWorldView& world() const { return world_; }
  // Server-wide async warm queue (visual.prefetch_workers workers; all
  // sessions share it, cancellation stays per session); null unless
  // visual.prefetch is kAsync.
  const prefetch::AsyncFetchQueue* prefetch_queue() const {
    return prefetch_queue_.get();
  }

  // Writes the deterministic aggregates of a finished run into `registry`
  // as gauges: `<prefix>.session.<name>.*` per session (through
  // PublishSessionGauges, as PlaySession does) plus `<prefix>.frames`,
  // `.rounds`, `.batch_groups`, `.batched_frames`. Wall-clock and shared-cache
  // numbers are deliberately excluded — they vary run to run, and these
  // gauges feed zero-tolerance bench comparisons.
  static void RollupInto(const ServerRunStats& stats,
                         telemetry::MetricsRegistry* registry,
                         const std::string& prefix);

 private:
  explicit WalkthroughServer(const ServerOptions& options)
      : options_(options) {}

  Status LoadWorld();

  ServerOptions options_;
  PersistStats persist_;
  std::unique_ptr<SnapshotLoader> loader_;
  // Clock the one-time world decode bills into; never read afterwards.
  SimClock load_clock_;

  Scene scene_;
  CellGrid grid_;
  std::shared_ptr<const HdovTree> tree_;
  std::string store_meta_;
  std::string model_meta_;

  // Shared base devices (const read path only after LoadWorld).
  std::unique_ptr<FilePageDevice> tree_base_;
  std::unique_ptr<FilePageDevice> store_base_;
  std::unique_ptr<FilePageDevice> model_base_;
  std::unique_ptr<BufferPool> tree_pool_;   // Null when disabled.
  std::unique_ptr<BufferPool> store_pool_;  // Null when disabled.
  // Server-wide background warm queue for async prefetch (null
  // otherwise). Declared after the pools/devices it warms: sessions
  // drain their own warms at destruction, and the queue's destructor
  // drains the rest before the warm targets go away.
  std::unique_ptr<prefetch::AsyncFetchQueue> prefetch_queue_;
  // Render workers, started once in Open and reused by every Play(): the
  // always-on flight recorder keeps a ring for every thread it ever saw,
  // so a fresh pool per Play() would grow memory with each call.
  std::unique_ptr<ThreadPool> pool_;

  SharedWorldView world_;
  std::vector<Session> sessions_;
};

}  // namespace hdov

#endif  // HDOV_SERVER_WALKTHROUGH_SERVER_H_
