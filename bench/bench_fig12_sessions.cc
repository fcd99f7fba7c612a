// Figure 12 reproduction plus the many-users serving benchmark.
//
// Part 1 (Figures 12a,b): average per-query search time and average I/Os
// for three recorded walkthrough sessions with different motion patterns
// — session 1: normal walk; session 2: turning left/right; session 3:
// moving back and forward — played on both VISUAL and REVIEW. Expected
// shape: VISUAL queries are much faster and cheaper than REVIEW's
// spatial queries in every session.
//
// Part 2 (server): N concurrent users served by a WalkthroughServer from
// one file-backed world snapshot. Reports the per-user simulated cost and
// the same-cell batching against the user count; each session's billing
// is bit-identical to solo playback, so every column is deterministic.
// A locality sub-experiment contrasts clustered users (identical paths,
// maximal same-cell batching) with spread users (independent paths) to
// show shared-cell locality driving the shared-cache hit rate. That rate
// depends on how the workers interleave, so it is printed on stdout and
// kept out of the report. The server's wall time (throughput, queue wait,
// service time) is measured by perfbench's serve workload.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "persist/snapshot.h"
#include "server/walkthrough_server.h"
#include "walkthrough/experiment_testbed.h"
#include "walkthrough/frame_loop.h"
#include "walkthrough/review_system.h"
#include "walkthrough/visual_system.h"

namespace hdov::bench {
namespace {

constexpr MotionPattern kPatterns[] = {MotionPattern::kNormalWalk,
                                       MotionPattern::kTurnLeftRight,
                                       MotionPattern::kBackForward};

// N user sessions over the world. Clustered users all walk the exact
// same path (maximal shared-cell locality); spread users get distinct
// seeds and alternating motion patterns. Names are made unique so
// per-session telemetry rollups do not collide.
std::vector<Session> MakeUserSessions(size_t n, const Aabb& bounds,
                                      const SessionOptions& base,
                                      bool clustered) {
  std::vector<Session> users;
  users.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    SessionOptions opt = base;
    if (!clustered) {
      opt.seed = base.seed + 101 * i;
    }
    const MotionPattern pattern =
        clustered ? kPatterns[0] : kPatterns[i % 3];
    Session session = RecordSession(pattern, bounds, opt);
    std::string name = "u";
    name += std::to_string(i);
    name += '.';
    name += session.name;
    session.name = std::move(name);
    users.push_back(std::move(session));
  }
  return users;
}

struct ServerRunDigest {
  ServerRunStats stats;
  double mean_sim_ms = 0.0;  // Mean over sessions of avg_frame_time_ms.
  double mean_sim_io = 0.0;  // Mean over sessions of avg_io_pages.
  double cache_hit_pct = 0.0;  // Store+tree shared caches combined.
};

bool RunServer(const ServerOptions& options,
               const std::vector<Session>& users, ServerRunDigest* out) {
  Result<std::unique_ptr<WalkthroughServer>> server =
      WalkthroughServer::Open(options);
  if (!server.ok()) {
    std::fprintf(stderr, "server open: %s\n",
                 server.status().ToString().c_str());
    return false;
  }
  for (const Session& user : users) {
    if (Status s = (*server)->AddSession(user); !s.ok()) {
      std::fprintf(stderr, "add session: %s\n", s.ToString().c_str());
      return false;
    }
  }
  Result<ServerRunStats> stats = (*server)->Play();
  if (!stats.ok()) {
    std::fprintf(stderr, "server play: %s\n",
                 stats.status().ToString().c_str());
    return false;
  }
  out->stats = *std::move(stats);

  for (const ServerSessionRecord& record : out->stats.sessions) {
    out->mean_sim_ms += record.summary.avg_frame_time_ms;
    out->mean_sim_io += record.summary.avg_io_pages;
  }
  const double n = static_cast<double>(out->stats.sessions.size());
  out->mean_sim_ms /= n;
  out->mean_sim_io /= n;
  const uint64_t hits =
      out->stats.store_cache.hits + out->stats.tree_cache.hits;
  const uint64_t lookups = hits + out->stats.store_cache.misses +
                           out->stats.tree_cache.misses;
  out->cache_hit_pct =
      lookups == 0 ? 0.0
                   : 100.0 * static_cast<double>(hits) /
                         static_cast<double>(lookups);
  return true;
}

int Run(const BenchArgs& args) {
  TelemetryScope telemetry(args, "bench_fig12_sessions");
  telemetry.Header("Figure 12: search performance across walkthrough"
                   " sessions, plus many-users serving",
                   "Figures 12(a,b)");
  Testbed bed = BuildTestbedOrDie(DefaultTestbedOptions());
  PrintTestbedSummary(bed);

  VisualOptions vopt = DefaultVisualOptions();
  vopt.eta = 0.001;
  // This experiment measures raw per-query search cost; prefetching is a
  // frame-smoothing optimization that would only add speculative I/O here.
  vopt.prefetch = prefetch::PrefetchMode::kOff;
  Result<std::unique_ptr<VisualSystem>> visual =
      MakeVisualSystem(bed, vopt);
  ReviewOptions ropt;
  ropt.query_box_size = 400.0;
  ropt.cache_distance = 600.0;
  Result<std::unique_ptr<ReviewSystem>> review =
      ReviewSystem::Create(&bed.scene, ropt);
  if (!visual.ok() || !review.ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }
  telemetry.Attach(visual->get(), "visual");
  telemetry.Attach(review->get(), "review");

  SessionOptions sopt;
  sopt.num_frames = LargeScale() ? 1200 : 400;

  SeriesTable table(telemetry.report(), "fig12.sessions", "session", 18,
                    {SeriesTable::Col{"VISUAL ms/q", 14, 3},
                     SeriesTable::Col{"REVIEW ms/q", 14, 3},
                     SeriesTable::Col{"VISUAL I/Os", 12, 2},
                     SeriesTable::Col{"REVIEW I/Os", 12, 2}});
  for (int i = 0; i < 3; ++i) {
    Session session = RecordSession(kPatterns[i], bed.scene.bounds(), sopt);
    Result<SessionSummary> vis = PlaySession(visual->get(), session);
    Result<SessionSummary> rev = PlaySession(review->get(), session);
    if (!vis.ok() || !rev.ok()) {
      std::fprintf(stderr, "playback failed\n");
      return 1;
    }
    table.Row(session.name,
              {vis->avg_query_time_ms, rev->avg_query_time_ms,
               vis->avg_io_pages, rev->avg_io_pages});
  }
  std::printf("\nshape check: VISUAL's visibility queries beat REVIEW's\n"
              "spatial queries on both time and I/O in all three motion\n"
              "patterns.\n");

  // ---- Part 2: many users served from one file-backed snapshot. ----
  //
  // With --db the committed snapshot is served directly; otherwise a
  // temporary one is written from the in-memory testbed and removed at
  // the end.
  std::string snapshot_path = BenchDbPath();
  bool temp_snapshot = false;
  if (snapshot_path.empty()) {
    snapshot_path = "bench_fig12_server.world";
    temp_snapshot = true;
    Result<std::unique_ptr<SnapshotWriter>> writer =
        SnapshotWriter::Create(snapshot_path, vopt.disk.page_size);
    if (!writer.ok() ||
        !WriteWorldSnapshot(writer->get(), bed, vopt).ok() ||
        !(*writer)->Commit().ok()) {
      std::fprintf(stderr, "snapshot write failed\n");
      return 1;
    }
  }

  ServerOptions sv;
  sv.snapshot_path = snapshot_path;
  sv.visual = vopt;
  sv.workers = BenchThreads() > 1 ? BenchThreads() : 4;

  SessionOptions server_sopt = sopt;
  server_sopt.num_frames = LargeScale() ? 600 : 160;

  std::vector<size_t> user_counts = {1, 2, 4, 8};
  if (LargeScale()) {
    user_counts.push_back(16);
  }

  std::printf("\nmany users, one snapshot (%u workers, %zu-page shared"
              " cache):\n",
              sv.workers, sv.shared_cache_pages);
  SeriesTable users_table(
      telemetry.report(), "fig12.server.users", "users", 8,
      {SeriesTable::Col{"frames", 8, 0},
       SeriesTable::Col{"sim ms/f", 10, 3},
       SeriesTable::Col{"sim I/O/f", 11, 2},
       SeriesTable::Col{"batched", 9, 0}});
  for (size_t n : user_counts) {
    const std::vector<Session> users = MakeUserSessions(
        n, bed.scene.bounds(), server_sopt, /*clustered=*/false);
    ServerRunDigest digest;
    if (!RunServer(sv, users, &digest)) {
      return 1;
    }
    users_table.Row(std::to_string(n),
                    {static_cast<double>(digest.stats.total_frames),
                     digest.mean_sim_ms, digest.mean_sim_io,
                     static_cast<double>(digest.stats.batched_frames)});
    // Roll the largest fleet's per-session summaries (and the scheduler
    // counters) into the metrics registry — all deterministic values.
    if (n == user_counts.back() && telemetry.on()) {
      WalkthroughServer::RollupInto(digest.stats,
                                    &telemetry.get()->metrics(), "server");
    }
  }

  // Locality: identical paths share every V-page fetch; spread paths
  // only overlap where the world makes them.
  const size_t locality_users = user_counts.back();
  std::printf("\ncache hit rate vs shared-cell locality (%zu users):\n",
              locality_users);
  SeriesTable locality_table(
      telemetry.report(), "fig12.server.locality", "fleet", 12,
      {SeriesTable::Col{"sim I/O/f", 11, 2},
       SeriesTable::Col{"batched", 9, 0}});
  double hit_pct[2] = {0.0, 0.0};
  for (const bool clustered : {true, false}) {
    const std::vector<Session> users =
        MakeUserSessions(locality_users, bed.scene.bounds(), server_sopt,
                         clustered);
    ServerRunDigest digest;
    if (!RunServer(sv, users, &digest)) {
      return 1;
    }
    locality_table.Row(clustered ? "clustered" : "spread",
                       {digest.mean_sim_io,
                        static_cast<double>(digest.stats.batched_frames)});
    hit_pct[clustered ? 0 : 1] = digest.cache_hit_pct;
  }
  // The hit rate depends on how the workers interleave the frames, so it
  // is printed only.
  std::printf("clustered: shared-cache hit %.1f%%\n", hit_pct[0]);
  std::printf("spread: shared-cache hit %.1f%%\n", hit_pct[1]);

  if (temp_snapshot) {
    std::remove(snapshot_path.c_str());
    std::remove((snapshot_path + ".tmp").c_str());
  }
  std::printf("\nshape check: per-user simulated cost is flat in the user\n"
              "count (sessions bill independently), while clustered users\n"
              "batch more frames and hit the shared cache more often than\n"
              "spread users.\n");
  return telemetry.Write() ? 0 : 1;
}

}  // namespace
}  // namespace hdov::bench

int main(int argc, char** argv) {
  return hdov::bench::Run(hdov::bench::ParseBenchArgs(argc, argv));
}
