#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "prefetch/predictor.h"
#include "prefetch/prefetcher.h"
#include "scene/city_generator.h"
#include "telemetry/telemetry.h"
#include "walkthrough/visual_system.h"

namespace hdov {
namespace {

using prefetch::CellPrediction;
using prefetch::PrefetchMode;
using prefetch::PrefetchModeName;
using prefetch::VelocityPredictor;

class PrefetchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CityOptions copt;
    copt.mode = GeometryMode::kProxy;
    copt.blocks_x = 4;
    copt.blocks_y = 4;
    scene_ = new Scene(std::move(*GenerateCity(copt)));

    CellGridOptions gopt;
    gopt.cells_x = 4;
    gopt.cells_y = 4;
    grid_ = new CellGrid(std::move(*CellGrid::Build(scene_->bounds(), gopt)));

    PrecomputeOptions popt;
    popt.dov.cubemap.face_resolution = 24;
    popt.samples_per_cell = 1;
    table_ = new VisibilityTable(
        std::move(*PrecomputeVisibility(*scene_, *grid_, popt)));
  }

  static void TearDownTestSuite() {
    delete table_;
    delete grid_;
    delete scene_;
  }

  static std::unique_ptr<VisualSystem> MakeVisual(const VisualOptions& opt) {
    Result<std::unique_ptr<VisualSystem>> system =
        VisualSystem::Create(scene_, grid_, table_, opt);
    EXPECT_TRUE(system.ok()) << system.status().ToString();
    return std::move(*system);
  }

  static VisualOptions BaseOptions() {
    VisualOptions opt;
    opt.eta = 0.001;
    opt.build.rtree.max_entries = 8;
    opt.build.rtree.min_entries = 3;
    return opt;
  }

  // A straight west-to-east walk through the middle row of cells; crosses
  // several cell boundaries, which is what prefetch exists for.
  static std::vector<Viewpoint> EastboundWalk(size_t frames) {
    const Aabb& b = scene_->bounds();
    const double y = (b.min.y + b.max.y) / 2.0;
    std::vector<Viewpoint> walk;
    for (size_t i = 0; i < frames; ++i) {
      const double t = static_cast<double>(i) / (frames - 1);
      const double x = b.min.x + 1.0 + t * (b.max.x - b.min.x - 2.0);
      walk.push_back(Viewpoint{Vec3(x, y, 1.7), Vec3(1, 0, 0)});
    }
    return walk;
  }

  static Scene* scene_;
  static CellGrid* grid_;
  static VisibilityTable* table_;
};

Scene* PrefetchFixture::scene_ = nullptr;
CellGrid* PrefetchFixture::grid_ = nullptr;
VisibilityTable* PrefetchFixture::table_ = nullptr;

// The labels ablation E prints ("vertical/off", "vertical/async", ...)
// and files its telemetry under.
TEST(PrefetchModeTest, NamesAreAblationLabels) {
  EXPECT_STREQ(PrefetchModeName(PrefetchMode::kOff), "off");
  EXPECT_STREQ(PrefetchModeName(PrefetchMode::kSync), "sync");
  EXPECT_STREQ(PrefetchModeName(PrefetchMode::kAsync), "async");
}

TEST_F(PrefetchFixture, VerticalLookPredictsNothing) {
  VelocityPredictor predictor(grid_);
  const Vec3 center = scene_->bounds().Center();
  const CellId cell = grid_->ClampedCellForPoint(center);
  // Straight down, straight up, and exactly zero: all degenerate in the
  // horizontal plane. The legacy code normalized these (a NaN / garbage
  // probe); the predictor must return invalid instead.
  for (const Vec3& look : {Vec3(0, 0, -1), Vec3(0, 0, 1), Vec3(0, 0, 0)}) {
    CellPrediction p =
        predictor.PredictFromLook(Viewpoint{center, look}, cell);
    EXPECT_FALSE(p.valid);
  }
  // NaN components fail the same guard rather than propagating.
  const double nan = std::nan("");
  CellPrediction p = predictor.PredictFromLook(
      Viewpoint{center, Vec3(nan, nan, 0)}, cell);
  EXPECT_FALSE(p.valid);
}

TEST_F(PrefetchFixture, LookPredictsTheCellAhead) {
  VelocityPredictor predictor(grid_);
  const Vec3 pos = grid_->CellCenter(grid_->ClampedCellForPoint(
      scene_->bounds().Center()));
  const CellId cell = grid_->ClampedCellForPoint(pos);
  CellPrediction east =
      predictor.PredictFromLook(Viewpoint{pos, Vec3(1, 0, 0)}, cell);
  ASSERT_TRUE(east.valid);
  EXPECT_NE(east.cell, cell);
  // A steep-but-not-vertical look still predicts from the horizontal
  // component alone.
  CellPrediction steep = predictor.PredictFromLook(
      Viewpoint{pos, Vec3(0.1, 0, -10.0)}, cell);
  ASSERT_TRUE(steep.valid);
  EXPECT_EQ(steep.cell, east.cell);
}

TEST_F(PrefetchFixture, VelocityBeatsLookWhenMoving) {
  VelocityPredictor predictor(grid_);
  const Vec3 pos = grid_->CellCenter(grid_->ClampedCellForPoint(
      scene_->bounds().Center()));
  const Vec3 look(1, 0, 0);  // Facing east...
  // ...while strafing north. After a few observations the velocity
  // average points north and overrides the look direction.
  CellPrediction p;
  Vec3 v = pos;
  for (int i = 0; i < 4; ++i) {
    v = v + Vec3(0, 2.0, 0);
    p = predictor.Observe(Viewpoint{v, look}, grid_->ClampedCellForPoint(v));
  }
  EXPECT_GT(predictor.velocity().y, 0.0);
  ASSERT_TRUE(p.valid);
  const CellId here = grid_->ClampedCellForPoint(v);
  CellPrediction from_look =
      predictor.PredictFromLook(Viewpoint{v, look}, here);
  ASSERT_TRUE(from_look.valid);
  EXPECT_NE(p.cell, from_look.cell);
}

TEST_F(PrefetchFixture, StationaryObserverFallsBackToLook) {
  VelocityPredictor predictor(grid_);
  const Vec3 pos = grid_->CellCenter(grid_->ClampedCellForPoint(
      scene_->bounds().Center()));
  const CellId cell = grid_->ClampedCellForPoint(pos);
  const Viewpoint vp{pos, Vec3(-1, 0, 0)};
  CellPrediction p;
  for (int i = 0; i < 3; ++i) {
    p = predictor.Observe(vp, cell);  // Zero delta every frame.
  }
  CellPrediction from_look = predictor.PredictFromLook(vp, cell);
  ASSERT_TRUE(from_look.valid);
  ASSERT_TRUE(p.valid);
  EXPECT_EQ(p.cell, from_look.cell);
  predictor.Reset();
  EXPECT_EQ(predictor.velocity().LengthSquared(), 0.0);
}

TEST_F(PrefetchFixture, ObservedBoundaryCrossingKeepsPredictingAhead) {
  VelocityPredictor predictor(grid_);
  const Aabb& b = scene_->bounds();
  const double y = (b.min.y + b.max.y) / 2.0;
  // March east across the whole grid; whenever a prediction is made from
  // inside a non-final column it must be a different cell further east.
  Vec3 pos(b.min.x + 1.0, y, 1.7);
  bool crossed = false;
  CellId last_cell = grid_->ClampedCellForPoint(pos);
  for (int i = 0; i < 40; ++i) {
    pos = pos + Vec3((b.max.x - b.min.x) / 45.0, 0, 0);
    const CellId cell = grid_->ClampedCellForPoint(pos);
    crossed = crossed || cell != last_cell;
    last_cell = cell;
    CellPrediction p =
        predictor.Observe(Viewpoint{pos, Vec3(1, 0, 0)}, cell);
    if (p.valid) {
      EXPECT_NE(p.cell, cell);
    }
  }
  EXPECT_TRUE(crossed);  // The walk really exercised boundary crossings.
}

// A vertical look has no horizontal component to step along: a sync-mode
// system rendering straight-down frames must stay finite, succeed, and
// load nothing ahead (the predictor names no cell).
TEST_F(PrefetchFixture, SyncPrefetchSurvivesVerticalLook) {
  VisualOptions opt = BaseOptions();
  opt.prefetch = PrefetchMode::kSync;
  auto visual = MakeVisual(opt);

  const Vec3 center = scene_->bounds().Center();
  FrameResult frame;
  // First frame fetches plenty; the second is idle, which is when the
  // sync prefetch step actually runs its prediction.
  ASSERT_TRUE(
      visual->RenderFrame({center, Vec3(0, 0, -1)}, &frame).ok());
  ASSERT_TRUE(
      visual->RenderFrame({center, Vec3(0, 0, -1)}, &frame).ok());
  EXPECT_TRUE(std::isfinite(frame.frame_time_ms));
  EXPECT_EQ(frame.models_fetched, 0u);
}

// Sync prefetch is a step of VisualSystem::RenderFrame: no Prefetcher,
// and no <prefix>.prefetch.* metric (docs/prefetch.md), though the walk
// really prefetched.
TEST_F(PrefetchFixture, SyncModeBuildsNoPrefetcherOrPrefetchMetrics) {
  telemetry::Telemetry tel;  // Declared first: outlives the systems.
  VisualOptions off = BaseOptions();
  VisualOptions sync = BaseOptions();
  sync.prefetch = PrefetchMode::kSync;
  auto plain = MakeVisual(off);
  auto visual = MakeVisual(sync);
  EXPECT_EQ(visual->prefetcher(), nullptr);
  visual->AttachTelemetry(&tel, "vis");
  bool prefetched = false;
  for (const Viewpoint& vp : EastboundWalk(32)) {
    FrameResult fo, fs;
    ASSERT_TRUE(plain->RenderFrame(vp, &fo).ok());
    ASSERT_TRUE(visual->RenderFrame(vp, &fs).ok());
    prefetched = prefetched || fs.models_fetched != fo.models_fetched;
  }
  EXPECT_TRUE(prefetched);
  const telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  ASSERT_FALSE(snap.samples.empty());
  for (const telemetry::MetricSample& sample : snap.samples) {
    EXPECT_EQ(sample.name.find(".prefetch."), std::string::npos)
        << sample.name;
  }
  visual->DetachTelemetry();
}

// The sync plan (cell, retrieval list, cursor, loaded map) lives in
// VisualSystem; ResetRuntime must drop all of it. Reset right after the
// first frame sync prefetch changed (a live plan with loaded entries),
// then replay the walk: it must bill exactly as a fresh system.
TEST_F(PrefetchFixture, SyncResetRuntimeMidPlanReplaysLikeFresh) {
  VisualOptions off = BaseOptions();
  VisualOptions sync = BaseOptions();
  sync.prefetch = PrefetchMode::kSync;
  const std::vector<Viewpoint> walk = EastboundWalk(48);
  auto plain = MakeVisual(off);
  auto reused = MakeVisual(sync);
  bool prefetched = false;
  for (size_t i = 0; i < walk.size() && !prefetched; ++i) {
    FrameResult fo, fs;
    ASSERT_TRUE(plain->RenderFrame(walk[i], &fo).ok());
    ASSERT_TRUE(reused->RenderFrame(walk[i], &fs).ok());
    prefetched = fs.models_fetched != fo.models_fetched;
  }
  ASSERT_TRUE(prefetched);  // The walk really opened a sync plan.
  reused->ResetRuntime();
  // Back to the construction-time counters and disk heads, which
  // ResetRuntime deliberately leaves alone.
  reused->ResetIoStats();
  reused->tree_device().ResetAccessTracker();
  reused->store_device().ResetAccessTracker();
  reused->model_device().ResetAccessTracker();

  auto fresh = MakeVisual(sync);
  for (size_t i = 0; i < walk.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "frame " << i);
    FrameResult fr, ff;
    ASSERT_TRUE(reused->RenderFrame(walk[i], &fr).ok());
    ASSERT_TRUE(fresh->RenderFrame(walk[i], &ff).ok());
    EXPECT_EQ(fr.frame_time_ms, ff.frame_time_ms);
    EXPECT_EQ(fr.query_time_ms, ff.query_time_ms);
    EXPECT_EQ(fr.io_pages, ff.io_pages);
    EXPECT_EQ(fr.light_io_pages, ff.light_io_pages);
    EXPECT_EQ(fr.rendered_triangles, ff.rendered_triangles);
    EXPECT_EQ(fr.models_fetched, ff.models_fetched);
    EXPECT_EQ(fr.resident_bytes, ff.resident_bytes);
    EXPECT_EQ(fr.index_bytes_read, ff.index_bytes_read);
    EXPECT_EQ(fr.store_bytes_read, ff.store_bytes_read);
    EXPECT_EQ(fr.model_bytes_read, ff.model_bytes_read);
    EXPECT_EQ(fr.search.nodes_visited, ff.search.nodes_visited);
    EXPECT_EQ(fr.search.vpages_fetched, ff.search.vpages_fetched);
    EXPECT_EQ(fr.search.hidden_entries_pruned,
              ff.search.hidden_entries_pruned);
    EXPECT_EQ(fr.search.internal_terminations,
              ff.search.internal_terminations);
    EXPECT_EQ(fr.cache_hits, ff.cache_hits);
    EXPECT_EQ(fr.cache_misses, ff.cache_misses);
  }
  const IoStats r = reused->TotalIoStats();
  const IoStats f = fresh->TotalIoStats();
  EXPECT_EQ(r.page_reads, f.page_reads);
  EXPECT_EQ(r.page_writes, f.page_writes);
  EXPECT_EQ(r.seeks, f.seeks);
  EXPECT_EQ(r.bytes_read, f.bytes_read);
  EXPECT_EQ(r.bytes_written, f.bytes_written);
  EXPECT_EQ(reused->clock().NowMillis(), fresh->clock().NowMillis());
}

TEST_F(PrefetchFixture, OffModeBuildsNoPrefetcher) {
  VisualOptions opt = BaseOptions();
  opt.prefetch = PrefetchMode::kOff;
  auto visual = MakeVisual(opt);
  EXPECT_EQ(visual->prefetcher(), nullptr);
}

// Zero-drift contract: with the pipeline off, two independently built
// systems replay a session with bit-identical billing — and that billing
// never mentions prefetch.
TEST_F(PrefetchFixture, OffModeIsDeterministicAcrossBuilds) {
  VisualOptions opt = BaseOptions();
  opt.prefetch = PrefetchMode::kOff;
  auto a = MakeVisual(opt);
  auto b = MakeVisual(opt);
  for (const Viewpoint& vp : EastboundWalk(24)) {
    FrameResult fa, fb;
    ASSERT_TRUE(a->RenderFrame(vp, &fa).ok());
    ASSERT_TRUE(b->RenderFrame(vp, &fb).ok());
    EXPECT_EQ(fa.io_pages, fb.io_pages);
    EXPECT_DOUBLE_EQ(fa.frame_time_ms, fb.frame_time_ms);
  }
}

TEST_F(PrefetchFixture, AsyncPipelineOverlapsIoAndGetsUsed) {
  VisualOptions off = BaseOptions();
  off.prefetch = PrefetchMode::kOff;
  VisualOptions async = BaseOptions();
  async.prefetch = PrefetchMode::kAsync;
  auto base = MakeVisual(off);
  auto piped = MakeVisual(async);
  ASSERT_NE(piped->prefetcher(), nullptr);

  uint64_t off_pages = 0;
  uint64_t async_pages = 0;
  double off_ms = 0.0;
  double async_ms = 0.0;
  for (const Viewpoint& vp : EastboundWalk(32)) {
    FrameResult fo, fa;
    ASSERT_TRUE(base->RenderFrame(vp, &fo).ok());
    ASSERT_TRUE(piped->RenderFrame(vp, &fa).ok());
    off_pages += fo.io_pages;
    async_pages += fa.io_pages;
    off_ms += fo.frame_time_ms;
    async_ms += fa.frame_time_ms;
  }
  prefetch::PrefetcherStats stats = piped->prefetcher()->stats();
  EXPECT_GT(stats.plans, 0u);
  EXPECT_GT(stats.issued_pages, 0u);
  EXPECT_GT(stats.used_pages, 0u);  // Predictions actually paid off.
  EXPECT_GT(stats.overlap_cost_millis, 0.0);
  // Consumed pages came off the frames' bill: strictly less stall I/O
  // and simulated time than the identical walk without the pipeline.
  EXPECT_LT(async_pages, off_pages);
  EXPECT_LT(async_ms, off_ms);
  // Wasted ratio is a ratio.
  EXPECT_GE(stats.WastedRatio(), 0.0);
  EXPECT_LE(stats.WastedRatio(), 1.0);
}

TEST_F(PrefetchFixture, AsyncRunReportsIntoTelemetryAndResets) {
  telemetry::Telemetry tel;  // Declared first: outlives the system.
  VisualOptions opt = BaseOptions();
  opt.prefetch = PrefetchMode::kAsync;
  auto visual = MakeVisual(opt);
  visual->AttachTelemetry(&tel, "vis");
  for (const Viewpoint& vp : EastboundWalk(16)) {
    FrameResult frame;
    ASSERT_TRUE(visual->RenderFrame(vp, &frame).ok());
  }
  telemetry::MetricsSnapshot snap = tel.metrics().Snapshot();
  const telemetry::MetricSample* issued_view =
      snap.Find("vis.prefetch.issued_pages");
  ASSERT_NE(issued_view, nullptr);
  EXPECT_GT(issued_view->value, 0.0);
  EXPECT_NE(snap.Find("vis.prefetch.wasted_ratio"), nullptr);
  visual->DetachTelemetry();
  // ResetRuntime drops the plan but keeps cumulative counters.
  const uint64_t issued = visual->prefetcher()->stats().issued_pages;
  visual->ResetRuntime();
  EXPECT_EQ(visual->prefetcher()->planned_cell(), kInvalidCell);
  EXPECT_GE(visual->prefetcher()->stats().cancelled_pages, 0u);
  EXPECT_EQ(visual->prefetcher()->stats().issued_pages, issued);
}

// The diversion hook itself: a sink swallows billing (stats, clock, head)
// and records the runs; a residency gate consumes fully resident runs
// one-shot.
TEST(PrefetchBillingTest, SinkDivertsAndResidencyConsumes) {
  PageDevice device;
  const PageId first = device.AllocateUnmaterialized(8);
  std::string out;
  PrefetchSink sink;
  {
    ScopedPrefetchBilling scope(&device, &sink);
    ASSERT_TRUE(device.Read(first + 1, &out).ok());
    ASSERT_TRUE(device.Read(first + 2, &out).ok());  // Sequential run.
  }
  // The device saw nothing...
  EXPECT_EQ(device.stats().page_reads, 0u);
  EXPECT_EQ(device.stats().seeks, 0u);
  EXPECT_EQ(device.clock().NowMicros(), 0u);
  // ...the sink saw everything, one recorded run per billed read, with
  // its own private head tracker (the second read is sequential: no
  // second seek).
  EXPECT_EQ(sink.stats.page_reads, 2u);
  EXPECT_EQ(sink.stats.seeks, 1u);
  EXPECT_GT(sink.cost_millis, 0.0);
  ASSERT_EQ(sink.runs.size(), 2u);
  EXPECT_EQ(sink.runs[0].first, first + 1);
  EXPECT_EQ(sink.runs[0].second, 1u);
  EXPECT_EQ(sink.runs[1].first, first + 2);
  EXPECT_EQ(sink.runs[1].second, 1u);

  // Mark those pages resident; re-reading them is consumed, not billed.
  PrefetchResidency residency;
  residency.pages.insert(first + 1);
  residency.pages.insert(first + 2);
  device.set_prefetch_residency(&residency);
  ASSERT_TRUE(device.Read(first + 1, &out).ok());
  ASSERT_TRUE(device.Read(first + 2, &out).ok());
  EXPECT_EQ(device.stats().page_reads, 0u);
  EXPECT_EQ(device.clock().NowMicros(), 0u);
  EXPECT_EQ(residency.used_pages, 2u);
  EXPECT_EQ(residency.used_runs, 2u);
  EXPECT_TRUE(residency.pages.empty());  // One-shot: consumed.

  // Third read of the same page: residency is spent, billing resumes.
  ASSERT_TRUE(device.Read(first + 1, &out).ok());
  EXPECT_EQ(device.stats().page_reads, 1u);
  device.set_prefetch_residency(nullptr);
}

TEST(PrefetchBillingTest, PartiallyResidentRunBillsInFull) {
  PageDevice device;
  const PageId first = device.AllocateUnmaterialized(8);
  PrefetchResidency residency;
  residency.pages.insert(first + 1);  // Page first+2 is NOT resident.
  device.set_prefetch_residency(&residency);
  std::vector<std::string> out;
  ASSERT_TRUE(device.ReadRun(first + 1, 2, &out).ok());
  EXPECT_EQ(device.stats().page_reads, 2u);  // Billed in full.
  EXPECT_EQ(residency.used_pages, 0u);
  EXPECT_EQ(residency.pages.size(), 1u);  // Untouched.
  device.set_prefetch_residency(nullptr);
}

}  // namespace
}  // namespace hdov
