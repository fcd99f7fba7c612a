#include "telemetry/flight_recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/thread_pool.h"
#include "prefetch/prefetcher.h"
#include "scene/city_generator.h"
#include "storage/page_device.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/flight_rollup.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_context.h"
#include "temp_path.h"
#include "walkthrough/visual_system.h"

namespace hdov {
namespace {

using telemetry::DecodeFlightDump;
using telemetry::EncodeFlightDump;
using telemetry::FlightDump;
using telemetry::FlightEvent;
using telemetry::FlightEventType;
using telemetry::FlightFrameScope;
using telemetry::FlightInternName;
using telemetry::FlightNameCount;
using telemetry::FlightNameForId;
using telemetry::FlightNamesDropped;
using telemetry::FlightRecorder;
using telemetry::kMaxFlightNames;
using telemetry::SessionTraceScope;
using telemetry::StageTraceScope;
using telemetry::TraceStage;

// ---- Exactness against the simulated counters ------------------------
//
// Defined first so that, in a single-process run of this binary, the
// suite runs before NamesDroppedCountsTableOverflow fills the name table
// its device names need.

// A memory device that counts the billed reads asked of it.
class CountingDevice : public PageDevice {
 public:
  CountingDevice(const DiskModel& model, SimClock* clock)
      : PageDevice(model, clock) {}

  Status Read(PageId page, std::string* out) override {
    ++reads;
    return PageDevice::Read(page, out);
  }
  Status ReadRun(PageId first, uint64_t count,
                 std::vector<std::string>* out) override {
    reads += count > 0 ? 1 : 0;
    return PageDevice::ReadRun(first, count, out);
  }

  uint64_t reads = 0;
};

// One scheme's world, queried through a session view whose three devices
// count their reads.
struct CountedSystem {
  std::unique_ptr<VisualSystem> built;  // Holds the device images.
  std::unique_ptr<VisualSystem> view;
  CountingDevice* devices[3] = {};  // Indexed by SessionDeviceRole.
};

// A device's reads as the ring holds them.
struct RingReads {
  uint64_t runs = 0;   // kPageReadAgg runs.
  uint64_t seeks = 0;  // kPageReadAgg seeks.
  uint64_t pages = 0;  // kPageReadAgg pages.
  uint64_t diverted_runs = 0;   // Per-run kPageRead in the prefetch stage.
  uint64_t diverted_pages = 0;
  uint64_t other_runs = 0;  // Per-run kPageRead in any other stage.
  uint64_t used_runs = 0;   // kPrefetchUsed.
};

RingReads ReadsOf(const FlightDump& dump, uint16_t code) {
  RingReads r;
  for (const FlightEvent& ev : dump.events) {
    if (ev.code != code) {
      continue;
    }
    switch (static_cast<FlightEventType>(ev.type)) {
      case FlightEventType::kPageReadAgg:
        r.runs += telemetry::FlightReadRuns(ev);
        r.seeks += telemetry::FlightReadSeeks(ev);
        r.pages += ev.b;
        break;
      case FlightEventType::kPageRead:
        if (ev.stage == static_cast<uint8_t>(TraceStage::kPrefetch)) {
          ++r.diverted_runs;
          r.diverted_pages += ev.b;
        } else {
          ++r.other_runs;
        }
        break;
      case FlightEventType::kPrefetchUsed:
        ++r.used_runs;
        break;
      default:
        break;
    }
  }
  return r;
}

constexpr const char* kRoleNames[3] = {"tree", "store", "model"};

class FlightRecorderExactnessTest : public ::testing::Test {
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

  static void Make(StorageScheme scheme, prefetch::PrefetchMode mode,
                   CountedSystem* out) {
    VisualOptions opt;
    opt.eta = 0.001;
    opt.scheme = scheme;
    opt.build.rtree.max_entries = 8;
    opt.build.rtree.min_entries = 3;
    opt.prefetch = prefetch::PrefetchMode::kOff;
    auto built = VisualSystem::Create(scene_, grid_, table_, opt);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    out->built = std::move(*built);
    SharedWorldView world;
    world.scene = scene_;
    world.grid = grid_;
    world.tree = out->built->shared_tree();
    out->built->store()->EncodeMeta(&world.store_meta);
    out->built->models().EncodeMeta(&world.model_meta);
    PageDevice* images[3] = {&out->built->tree_device(),
                             &out->built->store_device(),
                             &out->built->model_device()};
    world.make_device = [out, images](SessionDeviceRole role, SimClock* clock)
        -> Result<std::unique_ptr<PageDevice>> {
      const PageDevice* image = images[static_cast<int>(role)];
      auto device = std::make_unique<CountingDevice>(image->model(), clock);
      std::vector<std::string> pages;
      HDOV_RETURN_IF_ERROR(image->ExportContents(&pages));
      HDOV_RETURN_IF_ERROR(device->RestoreContents(std::move(pages)));
      out->devices[static_cast<int>(role)] = device.get();
      return std::unique_ptr<PageDevice>(std::move(device));
    };
    opt.prefetch = mode;
    auto view = VisualSystem::CreateSessionView(world, opt);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    out->view = std::move(*view);
  }

  // The Fig. 7 query loop: one search plus model fetch per cell center.
  static void QueryEveryCell(VisualSystem* system) {
    std::vector<RetrievedLod> result;
    for (CellId c = 0; c < grid_->num_cells(); ++c) {
      ASSERT_TRUE(
          system->Query(grid_->CellCenter(c), true, &result, nullptr).ok());
    }
  }

  static Scene* scene_;
  static CellGrid* grid_;
  static VisibilityTable* table_;
};

Scene* FlightRecorderExactnessTest::scene_ = nullptr;
CellGrid* FlightRecorderExactnessTest::grid_ = nullptr;
VisibilityTable* FlightRecorderExactnessTest::table_ = nullptr;

// Every billed read of every device is in the ring, aggregated or per
// run: the ring's runs, seeks and pages equal the device's own count of
// reads and its IoStats deltas, across horizontal and indexed-vertical
// queries and an async-prefetch walk.
TEST_F(FlightRecorderExactnessTest, RingAccountsForEveryBilledRead) {
  telemetry::Telemetry tel;  // Outlives the systems' registrations.
  CountedSystem horizontal;
  CountedSystem indexed;
  ASSERT_NO_FATAL_FAILURE(Make(StorageScheme::kHorizontal,
                               prefetch::PrefetchMode::kOff, &horizontal));
  ASSERT_NO_FATAL_FAILURE(Make(StorageScheme::kIndexedVertical,
                               prefetch::PrefetchMode::kAsync, &indexed));
  CountedSystem* systems[2] = {&horizontal, &indexed};
  const char* prefixes[2] = {"exact.h", "exact.v"};
  for (int s = 0; s < 2; ++s) {
    systems[s]->view->AttachTelemetry(&tel, prefixes[s]);
  }

  FlightRecorder& global = telemetry::GlobalFlightRecorder();
  const uint64_t dropped_before = global.Drain(/*consume=*/true).dropped;
  IoStats stats_before[2][3];
  uint64_t reads_before[2][3];
  for (int s = 0; s < 2; ++s) {
    for (int r = 0; r < 3; ++r) {
      stats_before[s][r] = systems[s]->devices[r]->stats();
      reads_before[s][r] = systems[s]->devices[r]->reads;
    }
  }
  const uint64_t issued_before =
      indexed.view->prefetcher()->stats().issued_pages;

  QueryEveryCell(horizontal.view.get());
  QueryEveryCell(indexed.view.get());
  const Aabb& b = scene_->bounds();
  const double y = (b.min.y + b.max.y) / 2.0;
  for (int i = 0; i < 12; ++i) {
    const double x = b.min.x + 1.0 + i * (b.max.x - b.min.x - 2.0) / 11.0;
    FrameResult frame;
    ASSERT_TRUE(indexed.view
                    ->RenderFrame(Viewpoint{Vec3(x, y, 1.7), Vec3(1, 0, 0)},
                                  &frame)
                    .ok());
  }

  const FlightDump dump = global.Drain(/*consume=*/true);
  ASSERT_EQ(dump.dropped, dropped_before) << "the window outgrew the ring";
  uint64_t diverted_pages = 0;
  uint64_t used_runs = 0;
  for (int s = 0; s < 2; ++s) {
    for (int r = 0; r < 3; ++r) {
      const std::string name =
          std::string(prefixes[s]) + ".io." + kRoleNames[r];
      SCOPED_TRACE(name);
      const CountingDevice& device = *systems[s]->devices[r];
      const RingReads ring = ReadsOf(dump, FlightInternName(name));
      const IoStats delta = device.stats().Delta(stats_before[s][r]);
      EXPECT_GT(ring.runs, 0u);
      EXPECT_EQ(ring.other_runs, 0u);  // Every billed read ran in a stage.
      EXPECT_EQ(ring.pages, delta.page_reads);
      EXPECT_EQ(ring.seeks, delta.seeks);
      EXPECT_EQ(ring.runs + ring.diverted_runs + ring.used_runs,
                device.reads - reads_before[s][r]);
      diverted_pages += ring.diverted_pages;
      used_runs += ring.used_runs;
    }
  }
  // The walk really diverted and consumed prefetch reads, and the
  // diverted ones are exactly the prefetcher's issued pages.
  EXPECT_GT(diverted_pages, 0u);
  EXPECT_GT(used_runs, 0u);
  EXPECT_EQ(diverted_pages,
            indexed.view->prefetcher()->stats().issued_pages - issued_before);
}

// What `hdov_inspect --flight` prints for a Fig. 7-style run (queries with
// model fetches, no frames) adds up to the devices' counters, from a dump
// holding a few aggregates per query and no per-run reads.
TEST_F(FlightRecorderExactnessTest, InspectRollupMatchesFig7StyleRun) {
  telemetry::Telemetry tel;
  CountedSystem system;
  ASSERT_NO_FATAL_FAILURE(Make(StorageScheme::kIndexedVertical,
                               prefetch::PrefetchMode::kOff, &system));
  system.view->AttachTelemetry(&tel, "fig7");
  FlightRecorder& global = telemetry::GlobalFlightRecorder();
  global.Drain(/*consume=*/true);
  IoStats before[3];
  uint64_t reads_before[3];
  for (int r = 0; r < 3; ++r) {
    before[r] = system.devices[r]->stats();
    reads_before[r] = system.devices[r]->reads;
  }
  QueryEveryCell(system.view.get());
  QueryEveryCell(system.view.get());
  const std::string path = TempPath("fig7.flight");
  ASSERT_TRUE(global.WriteDump(path, /*consume=*/true).ok());
  Result<FlightDump> dump = FlightRecorder::ReadDump(path);
  std::remove(path.c_str());
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();

  const uint64_t queries = 2 * grid_->num_cells();
  EXPECT_LE(dump->events.size(), 3 * queries);
  const telemetry::FlightRollup rollup = telemetry::RollUpFlightDump(*dump);
  EXPECT_EQ(rollup.by_type.count(
                static_cast<uint8_t>(FlightEventType::kPageRead)),
            0u);
  uint64_t search_pages = 0;
  uint64_t total_pages = 0;
  for (int r = 0; r < 3; ++r) {
    const std::string name = std::string("fig7.io.") + kRoleNames[r];
    SCOPED_TRACE(name);
    ASSERT_EQ(rollup.by_source.count(name), 1u);
    const telemetry::FlightTotals& totals = rollup.by_source.at(name);
    const IoStats delta = system.devices[r]->stats().Delta(before[r]);
    EXPECT_EQ(totals.pages_read, delta.page_reads);
    EXPECT_EQ(totals.seeks, delta.seeks);
    EXPECT_EQ(totals.runs, system.devices[r]->reads - reads_before[r]);
    total_pages += delta.page_reads;
    search_pages += r == 2 ? 0 : delta.page_reads;
  }
  const auto stage = [&](TraceStage s) {
    return rollup.by_stage[static_cast<size_t>(s)].pages_read;
  };
  EXPECT_EQ(stage(TraceStage::kSearch), search_pages);
  EXPECT_EQ(stage(TraceStage::kFetch), total_pages - search_pages);
  EXPECT_EQ(rollup.by_session.at("<unattributed>").pages_read, total_pages);
  EXPECT_GT(total_pages, 0u);
}

TEST(FlightRecorderTest, RecordAndDrainInOrder) {
  FlightRecorder recorder(64);
  const uint16_t code = FlightInternName("test-device");
  recorder.Record(FlightEventType::kPageRead, code, 7, 2);
  recorder.Record(FlightEventType::kPoolHit, code, 7, 0);
  recorder.Record(FlightEventType::kFrameEnd, code, 0, 9);

  FlightDump dump = recorder.Drain();
  ASSERT_EQ(dump.events.size(), 3u);
  EXPECT_EQ(dump.events[0].type,
            static_cast<uint16_t>(FlightEventType::kPageRead));
  EXPECT_EQ(dump.events[0].a, 7u);
  EXPECT_EQ(dump.events[0].b, 2u);
  EXPECT_EQ(dump.events[1].type,
            static_cast<uint16_t>(FlightEventType::kPoolHit));
  EXPECT_EQ(dump.events[2].b, 9u);
  // Same-buffer events drain in recording order even with tied timestamps.
  EXPECT_LE(dump.events[0].ts_ns, dump.events[1].ts_ns);
  EXPECT_LE(dump.events[1].ts_ns, dump.events[2].ts_ns);
  // The dump's name table resolves the interned code.
  EXPECT_EQ(dump.NameOf(dump.events[0]), "test-device");
  EXPECT_EQ(recorder.events_recorded(), 3u);
  EXPECT_EQ(recorder.events_dropped(), 0u);
}

TEST(FlightRecorderTest, DisabledRecorderDropsNothingSilently) {
  FlightRecorder recorder(64);
  recorder.set_enabled(false);
  recorder.Record(FlightEventType::kPageRead, 0, 1, 1);
  EXPECT_EQ(recorder.events_recorded(), 0u);
  EXPECT_TRUE(recorder.Drain().events.empty());
  recorder.set_enabled(true);
  recorder.Record(FlightEventType::kPageRead, 0, 1, 1);
  EXPECT_EQ(recorder.Drain().events.size(), 1u);
}

TEST(FlightRecorderTest, WraparoundAccountsDroppedEvents) {
  // Capacity 8: recording 20 events overwrites the first 12.
  FlightRecorder recorder(8);
  ASSERT_EQ(recorder.events_per_thread(), 8u);
  for (uint64_t i = 0; i < 20; ++i) {
    recorder.Record(FlightEventType::kPoolMiss, 0, i, 0);
  }
  EXPECT_EQ(recorder.events_recorded(), 20u);
  EXPECT_EQ(recorder.events_dropped(), 12u);

  FlightDump dump = recorder.Drain(/*consume=*/true);
  EXPECT_EQ(dump.dropped, 12u);
  // The drain conservatively discards one extra slot (the one a concurrent
  // writer could be filling), so 7 of the surviving 8 events come back,
  // oldest first.
  ASSERT_EQ(dump.events.size(), 7u);
  EXPECT_EQ(dump.events.front().a, 13u);
  EXPECT_EQ(dump.events.back().a, 19u);
}

TEST(FlightRecorderTest, DrainConsumeIsExactlyOnce) {
  FlightRecorder recorder(16);
  for (uint64_t i = 0; i < 5; ++i) {
    recorder.Record(FlightEventType::kPageWrite, 0, i, 1);
  }
  EXPECT_EQ(recorder.Drain(/*consume=*/true).events.size(), 5u);
  // Already-consumed events neither reappear nor count as dropped.
  EXPECT_TRUE(recorder.Drain(/*consume=*/true).events.empty());
  EXPECT_EQ(recorder.events_dropped(), 0u);
  recorder.Record(FlightEventType::kPageWrite, 0, 99, 1);
  FlightDump dump = recorder.Drain();
  ASSERT_EQ(dump.events.size(), 1u);
  EXPECT_EQ(dump.events[0].a, 99u);
}

TEST(FlightRecorderTest, ConcurrentWritersFromThreadPool) {
  constexpr size_t kWriters = 4;
  constexpr uint64_t kPerWriter = 5000;
  FlightRecorder recorder(1 << 14);  // Roomy: no ring wraps.
  ThreadPool pool(kWriters);
  // ParallelFor self-schedules, so a fast participant could otherwise
  // grab every index; the barrier pins each index to a distinct thread.
  std::atomic<size_t> arrived{0};
  pool.ParallelFor(kWriters, [&](size_t, size_t i) {
    arrived.fetch_add(1);
    while (arrived.load() < kWriters) {
      std::this_thread::yield();
    }
    for (uint64_t n = 0; n < kPerWriter; ++n) {
      recorder.Record(FlightEventType::kPoolHit,
                      static_cast<uint16_t>(0), i, n);
    }
  });
  pool.Wait();
  EXPECT_EQ(recorder.num_threads(), kWriters);
  EXPECT_EQ(recorder.events_recorded(), kWriters * kPerWriter);
  EXPECT_EQ(recorder.events_dropped(), 0u);

  FlightDump dump = recorder.Drain();
  EXPECT_EQ(dump.events.size(), kWriters * kPerWriter);
  // Each participating thread recorded into its own ring. Drain merges
  // the rings by timestamp, so each thread's events come out in its ring
  // order only if its flight clock never ran backwards: `b` counts up and
  // `ts_ns` never decreases per thread.
  std::vector<uint64_t> next_b(recorder.num_threads(), 0);
  std::vector<uint64_t> last_ts(recorder.num_threads(), 0);
  for (const FlightEvent& ev : dump.events) {
    ASSERT_LT(ev.thread, next_b.size());
    EXPECT_EQ(ev.b, next_b[ev.thread]);
    EXPECT_GE(ev.ts_ns, last_ts[ev.thread]);
    ++next_b[ev.thread];
    last_ts[ev.thread] = ev.ts_ns;
  }
}

TEST(FlightRecorderTest, ConcurrentDrainWhileRecording) {
  // TSan exercise: writers lap their rings while the main thread drains.
  constexpr size_t kWriters = 4;
  constexpr uint64_t kPerWriter = 20000;
  FlightRecorder recorder(64);  // Tiny: constant wraparound.
  ThreadPool pool(kWriters);
  std::atomic<bool> done{false};
  pool.Submit([&] {
    ThreadPool inner(kWriters);
    inner.ParallelFor(kWriters, [&](size_t, size_t i) {
      for (uint64_t n = 0; n < kPerWriter; ++n) {
        recorder.Record(FlightEventType::kPageRead,
                        static_cast<uint16_t>(i), n, 1);
      }
    });
    inner.Wait();
    done.store(true);
  });
  uint64_t drained = 0;
  while (!done.load()) {
    drained += recorder.Drain(/*consume=*/true).events.size();
  }
  pool.Wait();
  drained += recorder.Drain(/*consume=*/true).events.size();
  const uint64_t dropped = recorder.events_dropped();
  // No event is lost AND kept, and none goes missing: a consuming drain
  // counts the slots it discards (lapped mid-copy, or the one a writer
  // could be filling) as dropped.
  EXPECT_EQ(recorder.events_recorded(), kWriters * kPerWriter);
  EXPECT_EQ(drained + dropped, kWriters * kPerWriter);
  EXPECT_GT(drained, 0u);
}

TEST(FlightRecorderTest, ConsumingDrainsOfALappedRingAccountEveryEvent) {
  // Each consuming drain of a lapped ring gives up the oldest slot even
  // with no writer running; it must still count as dropped, so drained
  // plus dropped is every recorded event after each drain.
  FlightRecorder recorder(16);
  uint64_t recorded = 0;
  uint64_t drained = 0;
  for (const uint64_t burst : {40u, 16u, 3u, 17u, 64u, 15u}) {
    for (uint64_t i = 0; i < burst; ++i) {
      recorder.Record(FlightEventType::kPoolHit, 0, recorded++, 0);
    }
    const FlightDump dump = recorder.Drain(/*consume=*/true);
    drained += dump.events.size();
    SCOPED_TRACE(recorded);
    EXPECT_EQ(recorder.events_recorded(), recorded);
    EXPECT_EQ(drained + recorder.events_dropped(), recorded);
    EXPECT_LE(dump.dropped, recorder.events_dropped());
    if (!dump.events.empty()) {
      EXPECT_EQ(dump.events.back().a, recorded - 1);
    }
  }
  // A drain with nothing new changes nothing.
  EXPECT_TRUE(recorder.Drain(/*consume=*/true).events.empty());
  EXPECT_EQ(drained + recorder.events_dropped(), recorded);
}

TEST(FlightRecorderTest, InternTableDeduplicatesAndDegrades) {
  const uint16_t a = FlightInternName("flight-intern-a");
  const uint16_t b = FlightInternName("flight-intern-b");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(FlightInternName("flight-intern-a"), a);
  EXPECT_EQ(FlightNameForId(a), "flight-intern-a");
  EXPECT_EQ(FlightNameForId(0), "?");
  EXPECT_EQ(FlightNameForId(static_cast<uint16_t>(60000)), "?");
}

TEST(FlightRecorderTest, DumpFileRoundTrip) {
  FlightRecorder recorder(32);
  const uint16_t code = FlightInternName("roundtrip-device");
  for (uint64_t i = 0; i < 6; ++i) {
    recorder.Record(FlightEventType::kPageRead, code, i * 3, 2);
  }
  const std::string path = TempPath("flight_roundtrip.bin");
  ASSERT_TRUE(recorder.WriteDump(path).ok());

  Result<FlightDump> read = FlightRecorder::ReadDump(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->events.size(), 6u);
  EXPECT_EQ(read->dropped, 0u);
  for (size_t i = 0; i < read->events.size(); ++i) {
    EXPECT_EQ(read->events[i].a, i * 3);
    EXPECT_EQ(read->events[i].b, 2u);
    EXPECT_EQ(read->NameOf(read->events[i]), "roundtrip-device");
  }
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, DecodeRejectsMalformedDumps) {
  EXPECT_FALSE(DecodeFlightDump("not a dump").ok());
  EXPECT_FALSE(DecodeFlightDump("").ok());

  FlightDump dump;
  dump.names = {"?"};
  FlightEvent ev;
  ev.type = static_cast<uint16_t>(FlightEventType::kPageRead);
  dump.events.push_back(ev);
  const std::string encoded = EncodeFlightDump(dump);
  ASSERT_TRUE(DecodeFlightDump(encoded).ok());
  // Truncation anywhere inside the event section fails cleanly.
  EXPECT_FALSE(DecodeFlightDump(encoded.substr(0, encoded.size() - 1)).ok());
  // Trailing garbage is rejected, not ignored.
  EXPECT_FALSE(DecodeFlightDump(encoded + "x").ok());
}

TEST(FlightRecorderTest, ChromeTraceConversion) {
  FlightDump dump;
  dump.names = {"?", "visual"};
  FlightEvent begin;
  begin.ts_ns = 1000;
  begin.type = static_cast<uint16_t>(FlightEventType::kFrameBegin);
  begin.code = 1;
  begin.a = 0;
  FlightEvent io = begin;
  io.ts_ns = 2000;
  io.type = static_cast<uint16_t>(FlightEventType::kPageRead);
  FlightEvent end = begin;
  end.ts_ns = 3000;
  end.type = static_cast<uint16_t>(FlightEventType::kFrameEnd);
  end.b = 4;
  dump.events = {begin, io, end};

  const std::string json = telemetry::ChromeTraceJson({.flight = &dump});
  // Frame boundaries pair as B/E duration events under pid 3; the page
  // read becomes an instant.
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"visual\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"page_read\""), std::string::npos);
}

TEST(FlightRecorderTest, FrameScopeBracketsWithIoPages) {
  telemetry::FlightRecorder& global = telemetry::GlobalFlightRecorder();
  global.Drain(/*consume=*/true);  // Start from a clean window.
  const uint16_t code = FlightInternName("scope-system");
  {
    FlightFrameScope scope(code, 41);
    scope.set_io_pages(17);
  }
  FlightDump dump = global.Drain(/*consume=*/true);
  const FlightEvent* begin = nullptr;
  const FlightEvent* end = nullptr;
  for (const FlightEvent& ev : dump.events) {
    if (ev.code != code) {
      continue;
    }
    if (ev.type == static_cast<uint16_t>(FlightEventType::kFrameBegin)) {
      begin = &ev;
    } else if (ev.type ==
               static_cast<uint16_t>(FlightEventType::kFrameEnd)) {
      end = &ev;
    }
  }
  ASSERT_NE(begin, nullptr);
  ASSERT_NE(end, nullptr);
  EXPECT_EQ(begin->a, 41u);
  EXPECT_EQ(end->a, 41u);
  EXPECT_EQ(end->b, 17u);
  EXPECT_LE(begin->ts_ns, end->ts_ns);
}

TEST(FlightRecorderTest, RecordStampsAmbientTraceContext) {
  FlightRecorder recorder(64);
  const uint16_t code = FlightInternName("ctx-device");
  const uint16_t session = FlightInternName("ctx-session");
  recorder.Record(FlightEventType::kPoolHit, code, 1, 0);
  {
    SessionTraceScope trace(session, 5);
    StageTraceScope stage(TraceStage::kFetch);
    recorder.Record(FlightEventType::kPoolMiss, code, 2, 0);
  }
  recorder.Record(FlightEventType::kPoolHit, code, 3, 0);

  FlightDump dump = recorder.Drain();
  ASSERT_EQ(dump.events.size(), 3u);
  // Outside any scope: unattributed.
  EXPECT_EQ(dump.events[0].session, 0u);
  EXPECT_EQ(dump.events[0].stage, 0u);
  // Inside the scopes: stamped with session and stage.
  EXPECT_EQ(dump.events[1].session, session);
  EXPECT_EQ(dump.events[1].stage, static_cast<uint8_t>(TraceStage::kFetch));
  // After the scopes unwind: unattributed again.
  EXPECT_EQ(dump.events[2].session, 0u);
  EXPECT_EQ(dump.events[2].stage, 0u);
  // The dump's name table resolves the session id too.
  EXPECT_EQ(dump.names[session], "ctx-session");
}

TEST(FlightRecorderTest, DumpRoundTripPreservesAttribution) {
  FlightDump dump;
  dump.names = {"?", "attr-session", "attr-device"};
  dump.dropped = 4;
  dump.names_dropped = 9;
  FlightEvent ev;
  ev.ts_ns = 1234;
  ev.type = static_cast<uint8_t>(FlightEventType::kPoolMiss);
  ev.stage = static_cast<uint8_t>(TraceStage::kSearch);
  ev.code = 2;
  ev.thread = 3;
  ev.session = 1;
  ev.a = 77;
  ev.b = 88;
  dump.events.push_back(ev);

  Result<FlightDump> back = DecodeFlightDump(EncodeFlightDump(dump));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->dropped, 4u);
  EXPECT_EQ(back->names_dropped, 9u);
  ASSERT_EQ(back->events.size(), 1u);
  const FlightEvent& rt = back->events[0];
  EXPECT_EQ(rt.ts_ns, 1234u);
  EXPECT_EQ(rt.type, static_cast<uint8_t>(FlightEventType::kPoolMiss));
  EXPECT_EQ(rt.stage, static_cast<uint8_t>(TraceStage::kSearch));
  EXPECT_EQ(rt.code, 2u);
  EXPECT_EQ(rt.thread, 3u);
  EXPECT_EQ(rt.session, 1u);
  EXPECT_EQ(rt.a, 77u);
  EXPECT_EQ(rt.b, 88u);
}

TEST(FlightRecorderTest, V1DumpDecodesWithZeroAttribution) {
  // A v1 dump hand-built byte for byte: no names_dropped field, and the
  // event meta packs type(16) | code(16) | thread(32).
  std::string data("HDOVFREC", 8);
  EncodeFixed32(&data, 1);  // version
  EncodeFixed32(&data, 2);  // name count
  EncodeFixed64(&data, 1);  // event count
  EncodeFixed64(&data, 6);  // dropped
  EncodeFixed32(&data, 1);
  data += "?";
  EncodeFixed32(&data, 6);
  data += "legacy";
  EncodeFixed64(&data, 42);  // ts_ns
  EncodeFixed64(&data,
                static_cast<uint64_t>(FlightEventType::kPoolHit) |
                    (static_cast<uint64_t>(1) << 16) |
                    (static_cast<uint64_t>(7) << 32));
  EncodeFixed64(&data, 99);  // a
  EncodeFixed64(&data, 3);   // b

  Result<FlightDump> dump = DecodeFlightDump(data);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump->dropped, 6u);
  EXPECT_EQ(dump->names_dropped, 0u);  // Field postdates v1.
  ASSERT_EQ(dump->events.size(), 1u);
  const FlightEvent& ev = dump->events[0];
  EXPECT_EQ(ev.ts_ns, 42u);
  EXPECT_EQ(ev.type, static_cast<uint8_t>(FlightEventType::kPoolHit));
  EXPECT_EQ(ev.code, 1u);
  EXPECT_EQ(ev.thread, 7u);
  EXPECT_EQ(dump->NameOf(ev), "legacy");
  // v1 predates attribution: session and stage decode as zero.
  EXPECT_EQ(ev.session, 0u);
  EXPECT_EQ(ev.stage, 0u);

  // Version skew does not relax the corruption checks: a truncated tail
  // and trailing garbage both fail for v1 exactly as for v2.
  EXPECT_FALSE(DecodeFlightDump(data.substr(0, data.size() - 1)).ok());
  EXPECT_FALSE(DecodeFlightDump(data.substr(0, data.size() - 17)).ok());
  EXPECT_FALSE(DecodeFlightDump(data + "x").ok());

  // An unknown future version is rejected outright.
  std::string future("HDOVFREC", 8);
  EncodeFixed32(&future, 99);
  EXPECT_FALSE(DecodeFlightDump(future).ok());
}

// ---- Page-read aggregation --------------------------------------------

// The kPageReadAgg events of `code` in `dump`.
std::vector<FlightEvent> AggregatesOf(const FlightDump& dump, uint16_t code) {
  std::vector<FlightEvent> out;
  for (const FlightEvent& ev : dump.events) {
    if (ev.code == code &&
        ev.type == static_cast<uint8_t>(FlightEventType::kPageReadAgg)) {
      out.push_back(ev);
    }
  }
  return out;
}

TEST(FlightRecorderTest, InStageReadsAggregatePerStageAndDevice) {
  FlightRecorder recorder(64);
  const uint16_t session = FlightInternName("agg-session");
  uint16_t codes[5];
  for (int i = 0; i < 5; ++i) {
    codes[i] = FlightInternName("agg-device-" + std::to_string(i));
  }
  // Outside any stage a read is one kPageRead event, as before.
  recorder.RecordRead(codes[0], 40, 3, true);
  {
    SessionTraceScope trace(session, 2);
    StageTraceScope stage(TraceStage::kFetch);
    recorder.RecordRead(codes[0], 7, 2, true);
    recorder.RecordRead(codes[0], 9, 1, false);
    recorder.RecordRead(codes[1], 100, 5, true);
    // Nothing is written while the stage is open.
    EXPECT_EQ(recorder.events_recorded(), 1u);
    // Five devices overflow the four pending slots: the totals still
    // come out exact, split over two aggregates of the first device.
    for (int i = 2; i < 5; ++i) {
      recorder.RecordRead(codes[i], 0, 1, true);
    }
    recorder.RecordRead(codes[0], 50, 4, true);
  }
  FlightDump dump = recorder.Drain();
  ASSERT_EQ(dump.events.front().type,
            static_cast<uint8_t>(FlightEventType::kPageRead));
  EXPECT_EQ(dump.events.front().a, 40u);
  EXPECT_EQ(dump.events.front().b, 3u);
  EXPECT_EQ(dump.events.front().stage, 0u);

  uint64_t runs = 0, seeks = 0, pages = 0;
  for (const FlightEvent& ev : AggregatesOf(dump, codes[0])) {
    EXPECT_EQ(ev.stage, static_cast<uint8_t>(TraceStage::kFetch));
    EXPECT_EQ(ev.session, session);
    runs += telemetry::FlightReadRuns(ev);
    seeks += telemetry::FlightReadSeeks(ev);
    pages += telemetry::FlightReadPages(ev);
  }
  EXPECT_EQ(runs, 3u);
  EXPECT_EQ(seeks, 2u);
  EXPECT_EQ(pages, 7u);
  const std::vector<FlightEvent> second = AggregatesOf(dump, codes[1]);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].a, 1u | (1ull << 32));
  EXPECT_EQ(second[0].b, 5u);
  for (int i = 2; i < 5; ++i) {
    ASSERT_EQ(AggregatesOf(dump, codes[i]).size(), 1u);
  }
  EXPECT_EQ(dump.events.size(), 1u + 2u + 1u + 3u);
}

TEST(FlightRecorderTest, NestedStagesFlushEachStageOnItsOwn) {
  FlightRecorder recorder(64);
  const uint16_t code = FlightInternName("nested-device");
  {
    StageTraceScope outer(TraceStage::kPrefetch);
    recorder.RecordRead(code, 0, 1, true);
    {
      StageTraceScope inner(TraceStage::kSearch);
      recorder.RecordRead(code, 10, 2, true);
      recorder.RecordRead(code, 12, 2, false);
    }
    recorder.RecordRead(code, 20, 4, true);
  }
  const std::vector<FlightEvent> aggs = AggregatesOf(recorder.Drain(), code);
  ASSERT_EQ(aggs.size(), 3u);
  EXPECT_EQ(aggs[0].stage, static_cast<uint8_t>(TraceStage::kPrefetch));
  EXPECT_EQ(aggs[0].b, 1u);
  EXPECT_EQ(aggs[1].stage, static_cast<uint8_t>(TraceStage::kSearch));
  EXPECT_EQ(aggs[1].a, 2u | (1ull << 32));
  EXPECT_EQ(aggs[1].b, 4u);
  EXPECT_EQ(aggs[2].stage, static_cast<uint8_t>(TraceStage::kPrefetch));
  EXPECT_EQ(aggs[2].b, 4u);
  EXPECT_LE(aggs[0].ts_ns, aggs[1].ts_ns);
  EXPECT_LE(aggs[1].ts_ns, aggs[2].ts_ns);
}

TEST(FlightRecorderTest, SameThreadDrainInsideStageSeesPendingReads) {
  FlightRecorder recorder(64);
  const uint16_t code = FlightInternName("drain-device");
  StageTraceScope stage(TraceStage::kSearch);
  recorder.RecordRead(code, 3, 6, true);
  std::vector<FlightEvent> aggs = AggregatesOf(recorder.Drain(), code);
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].b, 6u);
  // The flush emptied the pending totals: reads after it start afresh.
  recorder.RecordRead(code, 9, 1, true);
  aggs = AggregatesOf(recorder.Drain(/*consume=*/true), code);
  ASSERT_EQ(aggs.size(), 2u);
  EXPECT_EQ(aggs[1].b, 1u);
}

TEST(FlightRecorderTest, DivertedPrefetchReadsStayPerRun) {
  FlightRecorder& global = telemetry::GlobalFlightRecorder();
  global.Drain(/*consume=*/true);
  PageDevice device;
  const PageId first = device.AllocateUnmaterialized(8);
  telemetry::MetricsRegistry registry;
  device.RegisterWith(&registry, "diverted-device");
  const uint16_t code = FlightInternName("diverted-device");
  PrefetchSink sink;
  {
    // The speculative searcher's own kSearch scope inside the prefetch
    // pass: diverted reads are still prefetch issues, one event per run.
    StageTraceScope prefetch(TraceStage::kPrefetch);
    StageTraceScope search(TraceStage::kSearch);
    ScopedPrefetchBilling divert(&device, &sink);
    ASSERT_TRUE(device.ReadRun(first, 2, nullptr).ok());
    ASSERT_TRUE(device.ReadRun(first + 4, 3, nullptr).ok());
  }
  FlightDump dump = global.Drain(/*consume=*/true);
  std::vector<FlightEvent> reads;
  for (const FlightEvent& ev : dump.events) {
    if (ev.code == code) {
      reads.push_back(ev);
    }
  }
  ASSERT_EQ(reads.size(), 2u);
  for (const FlightEvent& ev : reads) {
    EXPECT_EQ(ev.type, static_cast<uint8_t>(FlightEventType::kPageRead));
    EXPECT_EQ(ev.stage, static_cast<uint8_t>(TraceStage::kPrefetch));
  }
  EXPECT_EQ(reads[0].a, first);
  EXPECT_EQ(reads[1].b, 3u);
  EXPECT_EQ(device.stats().page_reads, 0u);
}

TEST(FlightRecorderTest, V3DumpRoundTripsPageReadAggregates) {
  FlightDump dump;
  dump.names = {"?", "v3-session", "v3-device"};
  FlightEvent ev;
  ev.ts_ns = 77;
  ev.type = static_cast<uint8_t>(FlightEventType::kPageReadAgg);
  ev.stage = static_cast<uint8_t>(TraceStage::kFetch);
  ev.code = 2;
  ev.thread = 1;
  ev.session = 1;
  ev.a = 12u | (5ull << 32);
  ev.b = 4096;
  dump.events.push_back(ev);

  const std::string encoded = EncodeFlightDump(dump);
  Decoder header(std::string_view(encoded).substr(8));
  uint32_t version = 0;
  ASSERT_TRUE(header.DecodeFixed32(&version).ok());
  // The encoder writes the current version; v4 keeps v3's aggregates.
  EXPECT_EQ(version, 4u);
  Result<FlightDump> back = DecodeFlightDump(encoded);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->events.size(), 1u);
  const FlightEvent& rt = back->events[0];
  EXPECT_EQ(rt.type, static_cast<uint8_t>(FlightEventType::kPageReadAgg));
  EXPECT_EQ(rt.stage, static_cast<uint8_t>(TraceStage::kFetch));
  EXPECT_EQ(rt.session, 1u);
  EXPECT_EQ(telemetry::FlightReadRuns(rt), 12u);
  EXPECT_EQ(telemetry::FlightReadSeeks(rt), 5u);
  EXPECT_EQ(telemetry::FlightReadPages(rt), 4096u);
  EXPECT_EQ(telemetry::FlightEventTypeName(FlightEventType::kPageReadAgg),
            "page_read_agg");
}

TEST(FlightRecorderTest, V2DumpStillDecodes) {
  // A v2 dump hand-built byte for byte: the v3 layout with version 2.
  std::string data("HDOVFREC", 8);
  EncodeFixed32(&data, 2);  // version
  EncodeFixed32(&data, 2);  // name count
  EncodeFixed64(&data, 1);  // event count
  EncodeFixed64(&data, 0);  // dropped
  EncodeFixed64(&data, 5);  // names_dropped
  EncodeFixed32(&data, 1);
  data += "?";
  EncodeFixed32(&data, 3);
  data += "dev";
  EncodeFixed64(&data, 9);  // ts_ns
  EncodeFixed64(&data, static_cast<uint64_t>(FlightEventType::kPageRead) |
                           (static_cast<uint64_t>(TraceStage::kSearch) << 8) |
                           (static_cast<uint64_t>(1) << 16) |
                           (static_cast<uint64_t>(4) << 48));
  EncodeFixed64(&data, 11);  // a
  EncodeFixed64(&data, 2);   // b
  Result<FlightDump> dump = DecodeFlightDump(data);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump->names_dropped, 5u);
  ASSERT_EQ(dump->events.size(), 1u);
  EXPECT_EQ(dump->events[0].stage, static_cast<uint8_t>(TraceStage::kSearch));
  EXPECT_EQ(dump->events[0].thread, 4u);
  EXPECT_EQ(dump->NameOf(dump->events[0]), "dev");
  EXPECT_EQ(telemetry::FlightReadPages(dump->events[0]), 2u);
}

TEST(FlightRecorderTest, ChromeTraceShowsAggregateTotals) {
  FlightDump dump;
  dump.names = {"?", "agg-dev"};
  FlightEvent ev;
  ev.ts_ns = 5000;
  ev.type = static_cast<uint8_t>(FlightEventType::kPageReadAgg);
  ev.code = 1;
  ev.a = 3u | (2ull << 32);
  ev.b = 9;
  dump.events = {ev};
  const std::string json = telemetry::ChromeTraceJson({.flight = &dump});
  EXPECT_NE(json.find("\"cat\":\"io\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"page_read_agg\""), std::string::npos);
  EXPECT_NE(json.find("\"runs\":3"), std::string::npos);
  EXPECT_NE(json.find("\"seeks\":2"), std::string::npos);
  EXPECT_NE(json.find("\"pages\":9"), std::string::npos);
}

TEST(FlightRecorderTest, NamesDroppedCountsTableOverflow) {
  // Fills the process-wide intern table to its cap. Each ctest case runs
  // in its own process (gtest_discover_tests), so the pollution cannot
  // leak into other tests.
  const uint64_t before = FlightNamesDropped();
  for (size_t i = 0;
       FlightNameCount() < kMaxFlightNames && i < kMaxFlightNames + 8;
       ++i) {
    FlightInternName("overflow-filler-" + std::to_string(i));
  }
  ASSERT_EQ(FlightNameCount(), kMaxFlightNames);

  EXPECT_EQ(FlightInternName("overflow-past-cap-a"), 0u);
  EXPECT_EQ(FlightInternName("overflow-past-cap-b"), 0u);
  EXPECT_EQ(FlightNamesDropped(), before + 2);
  // Refused names degrade to the reserved "?" id, and names interned
  // before the cap still resolve.
  EXPECT_EQ(FlightNameForId(0), "?");
  EXPECT_EQ(FlightInternName("overflow-filler-0"),
            FlightInternName("overflow-filler-0"));

  // Drained dumps carry the counter, so it survives into dump files.
  FlightRecorder recorder(8);
  recorder.Record(FlightEventType::kPoolHit, 0, 1, 0);
  EXPECT_EQ(recorder.Drain().names_dropped, before + 2);
}

// ---- The flight clock ------------------------------------------------

using telemetry::FlightNowNs;
using SteadyClock = std::chrono::steady_clock;

// 10^6 reads on one thread never go backwards.
template <typename Fn>
void ExpectNonDecreasing(Fn flight) {
  uint64_t prev = flight();
  uint64_t backwards = 0;
  for (int i = 0; i < 1000000; ++i) {
    const uint64_t now = flight();
    backwards += now < prev ? 1 : 0;
    prev = now;
  }
  EXPECT_EQ(backwards, 0u);
}

TEST(FlightClockTest, NonDecreasingOnOneThread) {
  ExpectNonDecreasing([] { return FlightNowNs(); });
}

// Reads `flight` bracketed by two steady_clock reads.
struct Bracket {
  SteadyClock::time_point before;
  uint64_t flight_ns;
  SteadyClock::time_point after;
};

template <typename Fn>
Bracket ReadBracketed(Fn flight) {
  Bracket b;
  b.before = SteadyClock::now();
  b.flight_ns = flight();
  b.after = SteadyClock::now();
  return b;
}

double Ns(SteadyClock::duration d) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// Over >= 100 ms, the flight interval must match the steady_clock interval
// within 0.1%. The bracketing steady reads bound where each flight read
// happened, so a preemption between reads widens the bounds instead of
// failing the test.
template <typename Fn>
void ExpectTracksSteadyClock(Fn flight) {
  const Bracket start = ReadBracketed(flight);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  const Bracket end = ReadBracketed(flight);
  const double shortest = Ns(end.before - start.after);
  const double longest = Ns(end.after - start.before);
  ASSERT_GE(shortest, 100e6);
  ASSERT_GE(end.flight_ns, start.flight_ns);
  const double elapsed = static_cast<double>(end.flight_ns - start.flight_ns);
  EXPECT_GE(elapsed, shortest * (1.0 - 1e-3));
  EXPECT_LE(elapsed, longest * (1.0 + 1e-3));
}

TEST(FlightClockTest, AgreesWithSteadyClockWithinATenthOfAPercent) {
  ExpectTracksSteadyClock([] { return FlightNowNs(); });
}

TEST(FlightClockTest, SteadyFallbackKeepsTheContract) {
  // The fallback conversion is what FlightNowNs returns on hosts without a
  // trusted TSC; hold it to the same contract here, whichever path this
  // host takes.
  const auto fallback = [] {
    return telemetry::internal::FlightNsFromSteady(SteadyClock::now());
  };
  ExpectNonDecreasing(fallback);
  ExpectTracksSteadyClock(fallback);

  // Both conversions share the flight epoch: a fallback read lands
  // between two FlightNowNs reads, up to the TSC ratio's calibration
  // error accumulated since the epoch (far below 0.1% of it) plus 10 us.
  const uint64_t a = FlightNowNs();
  const uint64_t b = fallback();
  const uint64_t c = FlightNowNs();
  const double slack = 1e-3 * static_cast<double>(c) + 10e3;
  EXPECT_GE(static_cast<double>(b), static_cast<double>(a) - slack);
  EXPECT_LE(static_cast<double>(b), static_cast<double>(c) + slack);
  // Instants before the epoch clamp to zero rather than wrapping.
  EXPECT_EQ(telemetry::internal::FlightNsFromSteady(SteadyClock::time_point{}),
            0u);
}

}  // namespace
}  // namespace hdov
