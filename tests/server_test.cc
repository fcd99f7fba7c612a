// WalkthroughServer: the concurrent-session equivalence suite. The
// server's whole determinism contract is that a session served alongside
// N-1 others bills exactly what it bills alone — these tests pin that
// down bit for bit, for every storage scheme, plus the same-cell
// batching scheduler and the server's error paths.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "persist/world_codec.h"
#include "server/session_device.h"
#include "storage/file_device.h"
#include "server/walkthrough_server.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/flight_rollup.h"
#include "telemetry/metrics.h"
#include "telemetry/slow_frame.h"
#include "telemetry/telemetry.h"
#include "temp_path.h"
#include "walkthrough/experiment_testbed.h"
#include "walkthrough/frame_loop.h"
#include "walkthrough/visual_system.h"

namespace hdov {
namespace {

// One small world snapshot shared by every test in the suite (writing it
// is the expensive part; the tests only read).
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(TempPath("hdov_server_test.hdov"));
    TestbedOptions topt;
    topt.blocks = 4;
    topt.cells = 4;
    auto bed = BuildTestbed(topt);
    ASSERT_TRUE(bed.ok()) << bed.status().ToString();
    bed_ = new Testbed(std::move(*bed));

    auto writer = SnapshotWriter::Create(*path_);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(
        WriteWorldSnapshot(writer->get(), *bed_, DefaultVisualOptions())
            .ok());
    ASSERT_TRUE((*writer)->Commit().ok());
  }

  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete bed_;
    bed_ = nullptr;
    delete path_;
    path_ = nullptr;
  }

  static std::vector<Session> MakeSessions(size_t n, size_t frames,
                                           bool identical = false) {
    const MotionPattern patterns[] = {MotionPattern::kNormalWalk,
                                      MotionPattern::kTurnLeftRight,
                                      MotionPattern::kBackForward};
    std::vector<Session> sessions;
    for (size_t i = 0; i < n; ++i) {
      SessionOptions sopt;
      sopt.num_frames = frames;
      if (!identical) {
        sopt.seed = 7 + 31 * i;
      }
      Session s = RecordSession(identical ? patterns[0] : patterns[i % 3],
                                bed_->scene.bounds(), sopt);
      s.name.push_back('.');
      s.name.append(std::to_string(i));
      sessions.push_back(std::move(s));
    }
    return sessions;
  }

  // Plays `session` alone on a fresh file-backed solo system — the
  // reference the server must match bit for bit.
  static void PlaySolo(const Session& session, const VisualOptions& vopt,
                       SessionSummary* summary, IoStats* io,
                       double* sim_ms) {
    auto loader = SnapshotLoader::Open(*path_);
    ASSERT_TRUE(loader.ok()) << loader.status().ToString();
    auto solo = VisualSystem::CreateFromSnapshot(
        **loader, &bed_->scene, &bed_->grid, vopt,
        SnapshotLoadMode::kFileBacked);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    Result<SessionSummary> played = PlaySession(solo->get(), session);
    ASSERT_TRUE(played.ok()) << played.status().ToString();
    *summary = *played;
    *io = (*solo)->TotalIoStats();
    *sim_ms = (*solo)->clock().NowMillis();
  }

  static void ExpectSummariesIdentical(const SessionSummary& served,
                                       const SessionSummary& solo) {
    EXPECT_EQ(served.session_name, solo.session_name);
    EXPECT_EQ(served.num_frames, solo.num_frames);
    // EXPECT_DOUBLE_EQ: bit-identical, not merely close.
    EXPECT_DOUBLE_EQ(served.avg_frame_time_ms, solo.avg_frame_time_ms);
    EXPECT_DOUBLE_EQ(served.var_frame_time, solo.var_frame_time);
    EXPECT_DOUBLE_EQ(served.avg_query_time_ms, solo.avg_query_time_ms);
    EXPECT_DOUBLE_EQ(served.avg_io_pages, solo.avg_io_pages);
    EXPECT_DOUBLE_EQ(served.avg_light_io_pages, solo.avg_light_io_pages);
    EXPECT_DOUBLE_EQ(served.avg_cache_hit_rate, solo.avg_cache_hit_rate);
    EXPECT_EQ(served.max_resident_bytes, solo.max_resident_bytes);
  }

  static ServerOptions BaseOptions() {
    ServerOptions opt;
    opt.snapshot_path = *path_;
    opt.visual = DefaultVisualOptions();
    opt.workers = 4;
    return opt;
  }

  static std::string* path_;
  static Testbed* bed_;
};

std::string* ServerTest::path_ = nullptr;
Testbed* ServerTest::bed_ = nullptr;

TEST_F(ServerTest, ConcurrentSessionsBillExactlyLikeSoloPlayback) {
  const std::vector<Session> sessions = MakeSessions(4, 40);
  for (StorageScheme scheme :
       {StorageScheme::kHorizontal, StorageScheme::kVertical,
        StorageScheme::kIndexedVertical, StorageScheme::kBitmapVertical}) {
    SCOPED_TRACE(StorageSchemeName(scheme));
    ServerOptions opt = BaseOptions();
    opt.visual.scheme = scheme;

    auto server = WalkthroughServer::Open(opt);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    for (const Session& s : sessions) {
      ASSERT_TRUE((*server)->AddSession(s).ok());
    }
    auto stats = (*server)->Play();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->sessions.size(), sessions.size());

    for (size_t i = 0; i < sessions.size(); ++i) {
      SCOPED_TRACE(sessions[i].name);
      SessionSummary solo_summary;
      IoStats solo_io;
      double solo_ms = 0.0;
      PlaySolo(sessions[i], opt.visual, &solo_summary, &solo_io, &solo_ms);

      const ServerSessionRecord& served = stats->sessions[i];
      ExpectSummariesIdentical(served.summary, solo_summary);
      EXPECT_EQ(served.io.page_reads, solo_io.page_reads);
      EXPECT_EQ(served.io.seeks, solo_io.seeks);
      EXPECT_EQ(served.io.bytes_read, solo_io.bytes_read);
      EXPECT_DOUBLE_EQ(served.sim_clock_ms, solo_ms);
    }
  }
}

TEST_F(ServerTest, SoloAndServedPlaybackPublishTheSame) {
  // Solo playback and the server play a session frame by frame through
  // the same steps, so what they publish must agree: the five session
  // gauges bit for bit, and a capture-every-frame slow-frame ring the
  // same (frame, io_pages) sequence. Solo playback has no scheduler, so
  // its queue wait is 0.
  const Session session = MakeSessions(1, 30)[0];
  const ServerOptions opt = BaseOptions();
  telemetry::SlowFrameCapture& slow = telemetry::GlobalSlowFrameCapture();
  telemetry::SlowFrameOptions every;
  every.threshold_ms = 1e-6;
  every.percentile = 0.0;
  every.max_captures = session.frames.size();

  slow.Configure(every);
  telemetry::Telemetry tel;
  telemetry::MetricsSnapshot solo_gauges;
  {
    auto loader = SnapshotLoader::Open(*path_);
    ASSERT_TRUE(loader.ok()) << loader.status().ToString();
    auto solo = VisualSystem::CreateFromSnapshot(
        **loader, &bed_->scene, &bed_->grid, opt.visual,
        SnapshotLoadMode::kFileBacked);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    (*solo)->AttachTelemetry(&tel, "p");
    Result<SessionSummary> played = PlaySession(solo->get(), session);
    ASSERT_TRUE(played.ok()) << played.status().ToString();
    solo_gauges = tel.metrics().Snapshot();
  }
  const telemetry::SlowFrameRows solo_rows =
      telemetry::RollUpSlowFrames(slow.Snapshot());

  slow.Configure(every);
  auto server = WalkthroughServer::Open(opt);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->AddSession(session).ok());
  auto stats = (*server)->Play();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  telemetry::MetricsRegistry registry;
  WalkthroughServer::RollupInto(*stats, &registry, "p");
  const telemetry::MetricsSnapshot served_gauges = registry.Snapshot();
  const telemetry::SlowFrameRows served_rows =
      telemetry::RollUpSlowFrames(slow.Snapshot());
  slow.Configure(telemetry::SlowFrameOptions());

  for (const char* gauge : {".avg_frame_time_ms", ".var_frame_time",
                            ".avg_io_pages", ".cache_hit_rate",
                            ".max_resident_bytes"}) {
    const std::string name = "p.session." + session.name + gauge;
    SCOPED_TRACE(name);
    const telemetry::MetricSample* solo_sample = solo_gauges.Find(name);
    const telemetry::MetricSample* served_sample = served_gauges.Find(name);
    ASSERT_NE(solo_sample, nullptr);
    ASSERT_NE(served_sample, nullptr);
    EXPECT_EQ(served_sample->value, solo_sample->value);
  }

  ASSERT_EQ(solo_rows.captures.size(), session.frames.size());
  ASSERT_EQ(served_rows.captures.size(), session.frames.size());
  for (size_t i = 0; i < session.frames.size(); ++i) {
    SCOPED_TRACE(i);
    const telemetry::FrameStageRecord& solo_frame =
        solo_rows.captures[i].record;
    const telemetry::FrameStageRecord& served_frame =
        served_rows.captures[i].record;
    EXPECT_EQ(served_frame.frame, solo_frame.frame);
    EXPECT_EQ(served_frame.io_pages, solo_frame.io_pages);
    EXPECT_EQ(solo_frame.queue_ns, 0u);
  }
}

TEST_F(ServerTest, AsyncPrefetchServesBitIdenticalToSolo) {
  // With the async prefetch pipeline on, every session gets its own
  // predictor/epoch over one server-wide warm queue. The pipeline only
  // touches unbilled paths, and the speculative searches bill a private
  // sink — so a served session must still bill exactly like solo async
  // playback, worker interleaving and all.
  const std::vector<Session> sessions = MakeSessions(3, 40);
  ServerOptions opt = BaseOptions();
  opt.visual.prefetch = prefetch::PrefetchMode::kAsync;

  auto server = WalkthroughServer::Open(opt);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_NE((*server)->prefetch_queue(), nullptr);
  for (const Session& s : sessions) {
    ASSERT_TRUE((*server)->AddSession(s).ok());
  }
  auto stats = (*server)->Play();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->sessions.size(), sessions.size());
  // The shared queue actually did work for the fleet — the equivalence
  // below is not vacuous.
  EXPECT_GT((*server)->prefetch_queue()->stats().requests_issued, 0u);

  for (size_t i = 0; i < sessions.size(); ++i) {
    SCOPED_TRACE(sessions[i].name);
    SessionSummary solo_summary;
    IoStats solo_io;
    double solo_ms = 0.0;
    PlaySolo(sessions[i], opt.visual, &solo_summary, &solo_io, &solo_ms);

    const ServerSessionRecord& served = stats->sessions[i];
    ExpectSummariesIdentical(served.summary, solo_summary);
    EXPECT_EQ(served.io.page_reads, solo_io.page_reads);
    EXPECT_EQ(served.io.seeks, solo_io.seeks);
    EXPECT_EQ(served.io.bytes_read, solo_io.bytes_read);
    EXPECT_DOUBLE_EQ(served.sim_clock_ms, solo_ms);
  }
}

TEST_F(ServerTest, SchedulingKnobsDoNotChangeBilling) {
  // Same fleet inline and across workers: simulated counters must be
  // identical — only wall time may differ.
  const std::vector<Session> sessions = MakeSessions(3, 30);
  std::vector<ServerRunStats> runs;
  for (uint32_t workers : {1u, 4u}) {
    ServerOptions opt = BaseOptions();
    opt.workers = workers;
    auto server = WalkthroughServer::Open(opt);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    for (const Session& s : sessions) {
      ASSERT_TRUE((*server)->AddSession(s).ok());
    }
    auto stats = (*server)->Play();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    runs.push_back(*std::move(stats));
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].sessions.size(), runs[0].sessions.size());
    for (size_t i = 0; i < runs[0].sessions.size(); ++i) {
      ExpectSummariesIdentical(runs[r].sessions[i].summary,
                               runs[0].sessions[i].summary);
      EXPECT_DOUBLE_EQ(runs[r].sessions[i].sim_clock_ms,
                       runs[0].sessions[i].sim_clock_ms);
    }
  }
}

TEST_F(ServerTest, RepeatedPlaysReuseTheWorkerThreads) {
  // Play() runs on the workers Open started, not on fresh threads per
  // call: across five Plays the recorder needs rings for at most the
  // pool's workers plus this thread.
  ServerOptions opt = BaseOptions();
  auto server = WalkthroughServer::Open(opt);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const telemetry::FlightRecorder& recorder =
      telemetry::GlobalFlightRecorder();
  const size_t threads_before = recorder.num_threads();
  for (int play = 0; play < 5; ++play) {
    for (const Session& s : MakeSessions(8, 10)) {
      ASSERT_TRUE((*server)->AddSession(s).ok());
    }
    auto stats = (*server)->Play();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  }
  EXPECT_LE(recorder.num_threads() - threads_before, opt.workers + 1u);
}

TEST_F(ServerTest, IdenticalSessionsBatchEveryRound) {
  const size_t kUsers = 6;
  const size_t kFrames = 25;
  ServerOptions opt = BaseOptions();
  auto server = WalkthroughServer::Open(opt);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  for (Session& s : MakeSessions(kUsers, kFrames, /*identical=*/true)) {
    ASSERT_TRUE((*server)->AddSession(s).ok());
  }
  auto stats = (*server)->Play();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  // Identical paths co-locate in every round: one group of six per
  // round, every frame batched, and the shared cache soaks up the
  // duplicate fetches.
  EXPECT_EQ(stats->rounds, kFrames);
  EXPECT_EQ(stats->batch_groups, kFrames);
  EXPECT_EQ(stats->batched_frames, kUsers * kFrames);
  EXPECT_GT(stats->store_cache.hits, 0u);

  // And every user got the exact same (deterministic) service.
  for (size_t i = 1; i < stats->sessions.size(); ++i) {
    EXPECT_DOUBLE_EQ(stats->sessions[i].summary.avg_frame_time_ms,
                     stats->sessions[0].summary.avg_frame_time_ms);
    EXPECT_EQ(stats->sessions[i].io.page_reads,
              stats->sessions[0].io.page_reads);
  }
}

TEST_F(ServerTest, SharedCacheDeduplicatesRealReads) {
  // With the cache off, N identical sessions re-read every page; with it
  // on, the shared pool serves the repeats.
  auto run = [&](size_t cache_pages, BufferPoolStats* store_cache) {
    ServerOptions opt = BaseOptions();
    opt.shared_cache_pages = cache_pages;
    auto server = WalkthroughServer::Open(opt);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    for (Session& s : MakeSessions(4, 20, /*identical=*/true)) {
      ASSERT_TRUE((*server)->AddSession(s).ok());
    }
    auto stats = (*server)->Play();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    *store_cache = stats->store_cache;
  };
  BufferPoolStats with_cache, without_cache;
  run(4096, &with_cache);
  run(0, &without_cache);
  EXPECT_GT(with_cache.hits, 0u);
  EXPECT_EQ(without_cache.hits + without_cache.misses, 0u);
}

TEST_F(ServerTest, RollupPublishesDeterministicGauges) {
  ServerOptions opt = BaseOptions();
  auto server = WalkthroughServer::Open(opt);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::vector<Session> sessions = MakeSessions(2, 15);
  for (const Session& s : sessions) {
    ASSERT_TRUE((*server)->AddSession(s).ok());
  }
  auto stats = (*server)->Play();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  telemetry::MetricsRegistry registry;
  WalkthroughServer::RollupInto(*stats, &registry, "server");
  EXPECT_TRUE(registry.Contains("server.frames"));
  EXPECT_TRUE(registry.Contains("server.rounds"));
  EXPECT_TRUE(registry.Contains("server.batch_groups"));
  EXPECT_TRUE(registry.Contains("server.batched_frames"));
  for (const Session& s : sessions) {
    EXPECT_TRUE(registry.Contains("server.session." + s.name +
                                  ".avg_frame_time_ms"));
    EXPECT_TRUE(
        registry.Contains("server.session." + s.name + ".cache_hit_rate"));
  }
}

TEST_F(ServerTest, SchedulerAccountsQueueWaitAndStageTime) {
  ServerOptions opt = BaseOptions();
  auto server = WalkthroughServer::Open(opt);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::vector<Session> sessions = MakeSessions(3, 20);
  for (const Session& s : sessions) {
    ASSERT_TRUE((*server)->AddSession(s).ok());
  }
  auto stats = (*server)->Play();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  for (const ServerSessionRecord& r : stats->sessions) {
    // Every frame got an enqueue→dispatch→complete triple: the service
    // and queue-wait vectors are both fully populated.
    EXPECT_EQ(r.frame_wall_ms.size(), r.summary.num_frames);
    EXPECT_EQ(r.frame_queue_wait_ms.size(), r.summary.num_frames);
    for (double q : r.frame_queue_wait_ms) {
      EXPECT_GE(q, 0.0);
    }
    for (double s : r.frame_wall_ms) {
      EXPECT_GE(s, 0.0);
    }
    // The stage accounting attributed real time: the search stage runs
    // on every frame, so its total cannot be zero.
    EXPECT_GT(r.stage_totals.total_ns(), 0u);
    EXPECT_GT(
        r.stage_totals.ns[static_cast<size_t>(telemetry::TraceStage::kSearch)],
        0u);
  }
}

TEST_F(ServerTest, TracingDoesNotMoveSimulatedCounters) {
  // The attribution plane (trace scopes, slow-frame feed, latency
  // accounting) must not move one simulated number: serving with the
  // flight recorder disabled and the slow-frame capture saturated gives
  // bit-identical billing to a plain run.
  const std::vector<Session> sessions = MakeSessions(2, 20);
  auto play = [&](bool recorder_on) {
    ServerOptions opt = BaseOptions();
    auto server = WalkthroughServer::Open(opt);
    EXPECT_TRUE(server.ok());
    for (const Session& s : sessions) {
      EXPECT_TRUE((*server)->AddSession(s).ok());
    }
    telemetry::GlobalFlightRecorder().set_enabled(recorder_on);
    auto stats = (*server)->Play();
    telemetry::GlobalFlightRecorder().set_enabled(true);
    EXPECT_TRUE(stats.ok());
    return *std::move(stats);
  };
  const ServerRunStats with = play(true);
  const ServerRunStats without = play(false);
  ASSERT_EQ(with.sessions.size(), without.sessions.size());
  for (size_t i = 0; i < with.sessions.size(); ++i) {
    ExpectSummariesIdentical(with.sessions[i].summary,
                             without.sessions[i].summary);
    EXPECT_DOUBLE_EQ(with.sessions[i].sim_clock_ms,
                     without.sessions[i].sim_clock_ms);
  }
  EXPECT_EQ(with.total_frames, without.total_frames);
  EXPECT_EQ(with.rounds, without.rounds);
  EXPECT_EQ(with.batched_frames, without.batched_frames);
}

TEST_F(ServerTest, ServedWorldIsReadOnly) {
  ServerOptions opt = BaseOptions();
  auto server = WalkthroughServer::Open(opt);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  SimClock clock;
  auto device =
      (*server)->world().make_device(SessionDeviceRole::kStore, &clock);
  ASSERT_TRUE(device.ok());
  EXPECT_EQ((*device)->Allocate(), kInvalidPage);
  EXPECT_EQ((*device)->AllocateUnmaterialized(3), kInvalidPage);
  EXPECT_TRUE((*device)->Write(0, "nope").IsFailedPrecondition());
  EXPECT_TRUE((*device)->RestoreContents({}).IsFailedPrecondition());
  // Reading still works (and bills the private clock).
  std::string data;
  EXPECT_TRUE((*device)->Read(0, &data).ok());
  EXPECT_GT(clock.NowMillis(), 0.0);
}

TEST_F(ServerTest, ErrorPaths) {
  ServerOptions opt = BaseOptions();
  auto server = WalkthroughServer::Open(opt);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_TRUE((*server)->AddSession(Session()).IsInvalidArgument());
  EXPECT_TRUE((*server)->Play().status().IsInvalidArgument());

  ServerOptions bad = BaseOptions();
  bad.visual.disk.page_size *= 2;
  EXPECT_FALSE(WalkthroughServer::Open(bad).ok());

  ServerOptions missing = BaseOptions();
  missing.snapshot_path = TempPath("hdov_server_no_such_file.hdov");
  EXPECT_FALSE(WalkthroughServer::Open(missing).ok());
}

// first + count wraps past 2^64 for a run at the top of the id space;
// every device's run bounds must still reject it without billing.
TEST(DeviceBoundsTest, ReadRunDoesNotWrapOnAnyDevice) {
  PageDevice memory;
  memory.AllocateUnmaterialized(4);
  const std::string path = TempPath("run_bounds.bin");
  auto file = FilePageDevice::Create(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  (*file)->AllocateUnmaterialized(4);
  SimClock clock;
  SessionDevice session(&memory, nullptr, DiskModel(), &clock);
  for (PageDevice* device :
       {&memory, static_cast<PageDevice*>(file->get()),
        static_cast<PageDevice*>(&session)}) {
    EXPECT_EQ(device->ReadRun(~0ull, 2, nullptr).code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(device->ReadRun(3, ~0ull, nullptr).code(),
              StatusCode::kOutOfRange);
    EXPECT_EQ(device->ReadRun(3, 2, nullptr).code(), StatusCode::kOutOfRange);
    EXPECT_TRUE(device->ReadRun(2, 2, nullptr).ok());
    EXPECT_EQ(device->stats().page_reads, 2u);
  }
  file->reset();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hdov
