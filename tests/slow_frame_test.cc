#include "telemetry/slow_frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <latch>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/flight_rollup.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_context.h"
#include "temp_path.h"

namespace hdov {
namespace {

using telemetry::DecodeFlightDump;
using telemetry::EncodeFlightDump;
using telemetry::FlightDump;
using telemetry::FlightEvent;
using telemetry::FlightEventType;
using telemetry::FlightFrameScope;
using telemetry::FlightInternName;
using telemetry::FlightNowNs;
using telemetry::FlightRecorder;
using telemetry::FlightTotals;
using telemetry::FrameStageRecord;
using telemetry::GlobalFlightRecorder;
using telemetry::kNumTraceStages;
using telemetry::RollUpSlowFrames;
using telemetry::SessionTraceScope;
using telemetry::SlowFrame;
using telemetry::SlowFrameCapture;
using telemetry::SlowFrameOptions;
using telemetry::SlowFrameRows;
using telemetry::StageTraceScope;
using telemetry::TraceStage;

FrameStageRecord MakeRecord(uint16_t session, uint64_t frame,
                            double wall_ms, double queue_ms = 0.0) {
  FrameStageRecord r;
  r.session = session;
  r.frame = frame;
  r.start_ns = FlightNowNs();
  r.queue_ns = static_cast<uint64_t>(queue_ms * 1e6);
  r.wall_ns = static_cast<uint64_t>(wall_ms * 1e6);
  r.io_pages = frame;
  r.stages.ns[static_cast<size_t>(TraceStage::kSearch)] = r.wall_ns / 2;
  r.stages.ns[static_cast<size_t>(TraceStage::kFetch)] = r.wall_ns / 2;
  return r;
}

bool SameEvent(const FlightEvent& x, const FlightEvent& y) {
  return std::memcmp(&x, &y, sizeof(FlightEvent)) == 0;
}

size_t CountOf(const std::vector<FlightEvent>& events,
               const FlightEvent& ev) {
  return static_cast<size_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const FlightEvent& e) { return SameEvent(e, ev); }));
}

// Flight totals per event type.
std::map<uint8_t, FlightTotals> TotalsByType(const FlightDump& dump) {
  std::map<uint8_t, FlightTotals> totals;
  for (const FlightEvent& e : dump.events) {
    totals[e.type].Add(e);
  }
  return totals;
}

TEST(SlowFrameTest, AbsoluteThresholdTriggers) {
  SlowFrameOptions opt;
  opt.threshold_ms = 5.0;
  opt.percentile = 0.0;
  SlowFrameCapture cap(opt);
  cap.OnFrame(MakeRecord(1, 0, 1.0));
  EXPECT_EQ(cap.captures(), 0u);
  cap.OnFrame(MakeRecord(1, 1, 6.0, /*queue_ms=*/2.0));
  ASSERT_EQ(cap.captures(), 1u);

  const SlowFrameRows rows = RollUpSlowFrames(cap.Snapshot());
  EXPECT_EQ(rows.frames_seen, 2u);
  EXPECT_EQ(rows.captures_dropped, 0u);
  ASSERT_EQ(rows.captures.size(), 1u);
  const FrameStageRecord& r = rows.captures[0].record;
  EXPECT_EQ(r.frame, 1u);
  EXPECT_EQ(r.queue_ns, 2'000'000u);
  EXPECT_EQ(rows.captures[0].trip_threshold_ns, 5'000'000u);
}

TEST(SlowFrameTest, PercentileTriggerIgnoresFlatDistributions) {
  SlowFrameOptions opt;
  opt.threshold_ms = 0.0;
  opt.percentile = 0.9;
  opt.warmup_frames = 16;
  opt.ring_frames = 64;
  SlowFrameCapture cap(opt);
  // A flat distribution never fires: the trigger is strictly-above the
  // trailing percentile, and every frame equals it.
  for (uint64_t f = 0; f < 100; ++f) {
    cap.OnFrame(MakeRecord(1, f, 1.0));
  }
  EXPECT_EQ(cap.captures(), 0u);
  // One outlier against that history fires with the percentile cut as
  // the recorded threshold.
  cap.OnFrame(MakeRecord(1, 100, 10.0));
  ASSERT_EQ(cap.captures(), 1u);
  const SlowFrameRows rows = RollUpSlowFrames(cap.Snapshot());
  ASSERT_EQ(rows.captures.size(), 1u);
  EXPECT_EQ(rows.captures[0].record.frame, 100u);
  EXPECT_NEAR(rows.captures[0].trip_threshold_ns / 1e6, 1.0, 0.01);
}

TEST(SlowFrameTest, PercentileWaitsForWarmup) {
  SlowFrameOptions opt;
  opt.threshold_ms = 0.0;
  opt.percentile = 0.9;
  opt.warmup_frames = 50;
  SlowFrameCapture cap(opt);
  for (uint64_t f = 0; f < 10; ++f) {
    cap.OnFrame(MakeRecord(1, f, 1.0));
  }
  // 10 frames of history is below the warmup: even a huge outlier does
  // not fire (the trailing window is not trustworthy yet).
  cap.OnFrame(MakeRecord(1, 10, 100.0));
  EXPECT_EQ(cap.captures(), 0u);
}

TEST(SlowFrameTest, MaxCapturesCountsDroppedTriggers) {
  SlowFrameOptions opt;
  opt.threshold_ms = 1.0;
  opt.percentile = 0.0;
  opt.max_captures = 2;
  SlowFrameCapture cap(opt);
  for (uint64_t f = 0; f < 5; ++f) {
    cap.OnFrame(MakeRecord(1, f, 2.0));
  }
  EXPECT_EQ(cap.captures(), 2u);
  const SlowFrameRows rows = RollUpSlowFrames(cap.Snapshot());
  EXPECT_EQ(rows.captures_dropped, 3u);
  EXPECT_EQ(rows.frames_seen, 5u);
}

TEST(SlowFrameTest, DisabledCaptureSeesNothing) {
  // ring_frames = 0 is the off switch; Configure turns it back on.
  SlowFrameOptions opt;
  opt.threshold_ms = 1.0;
  opt.ring_frames = 0;
  SlowFrameCapture cap(opt);
  cap.OnFrame(MakeRecord(1, 0, 10.0));
  EXPECT_EQ(cap.frames_seen(), 0u);
  EXPECT_EQ(cap.captures(), 0u);
  opt.ring_frames = 512;
  cap.Configure(opt);
  cap.OnFrame(MakeRecord(1, 1, 10.0));
  EXPECT_EQ(cap.frames_seen(), 1u);
  EXPECT_EQ(cap.captures(), 1u);
}

TEST(SlowFrameTest, CaptureSnapshotsSessionWindowEvents) {
  const uint16_t session = FlightInternName("slowtest-session");
  const uint16_t other = FlightInternName("slowtest-other");
  const uint16_t code = FlightInternName("slowtest-pool");

  SlowFrameOptions opt;
  opt.threshold_ms = 0.0001;
  opt.percentile = 0.0;
  SlowFrameCapture cap(opt);

  FrameStageRecord record;
  record.session = session;
  record.frame = 3;
  record.start_ns = FlightNowNs();
  {
    SessionTraceScope trace(session, 3);
    StageTraceScope stage(TraceStage::kFetch);
    telemetry::GlobalFlightRecorder().Record(FlightEventType::kPoolMiss,
                                             code, 11, 0);
  }
  {
    // Another session's event in the same window must not be captured.
    SessionTraceScope trace(other, 0);
    telemetry::GlobalFlightRecorder().Record(FlightEventType::kPoolMiss,
                                             code, 12, 0);
  }
  // Pad the window's end past the events just recorded.
  record.wall_ns = FlightNowNs() - record.start_ns + 1'000'000;
  cap.OnFrame(record);

  const FlightDump dump = cap.Snapshot();
  const SlowFrameRows rows = RollUpSlowFrames(dump);
  ASSERT_EQ(rows.captures.size(), 1u);
  const SlowFrame& entry = rows.captures[0];
  bool saw_own = false;
  for (const FlightEvent& ev : entry.events) {
    EXPECT_EQ(ev.session, session);  // Window filter is per-session.
    EXPECT_GE(ev.ts_ns, record.start_ns);
    EXPECT_LE(ev.ts_ns, record.start_ns + record.wall_ns);
    if (ev.a == 11 &&
        ev.stage == static_cast<uint8_t>(TraceStage::kFetch)) {
      saw_own = true;
    }
  }
  EXPECT_TRUE(saw_own);
  // The dump's copy of the global name table resolves the session.
  ASSERT_LT(session, dump.names.size());
  EXPECT_EQ(dump.names[session], "slowtest-session");
  // The other session's event is in no capture's window, so not in the
  // dump at all.
  for (const FlightEvent& ev : dump.events) {
    EXPECT_NE(ev.session, other);
  }
}

TEST(SlowFrameTest, DumpFileRoundTrip) {
  SlowFrameOptions opt;
  opt.threshold_ms = 1.0;
  opt.percentile = 0.0;
  opt.max_captures = 1;
  SlowFrameCapture cap(opt);
  FrameStageRecord record = MakeRecord(2, 7, 3.5, /*queue_ms=*/0.5);
  for (size_t s = 0; s < kNumTraceStages; ++s) {
    record.stages.ns[s] = 1000 * (s + 1) + 3;  // Every stage, odd values.
  }
  cap.OnFrame(MakeRecord(2, 6, 0.5));
  cap.OnFrame(record);
  cap.OnFrame(MakeRecord(2, 8, 4.0));  // Past max_captures: dropped.
  ASSERT_EQ(cap.captures(), 1u);

  // The run dump a bench's --flight-out writes: the ring plus the
  // captures.
  const std::string path = TempPath("slow_roundtrip.bin");
  ASSERT_TRUE(WriteStringToFile(
                  path,
                  EncodeFlightDump(cap.RunDump(GlobalFlightRecorder().Drain())),
                  "flight dump")
                  .ok());
  Result<FlightDump> read = FlightRecorder::ReadDump(path);
  std::remove(path.c_str());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(std::is_sorted(read->events.begin(), read->events.end(),
                             [](const FlightEvent& x, const FlightEvent& y) {
                               return x.ts_ns < y.ts_ns;
                             }));
  const SlowFrameRows rows = RollUpSlowFrames(*read);
  EXPECT_EQ(rows.frames_seen, 3u);
  EXPECT_EQ(rows.captures_dropped, 1u);
  ASSERT_EQ(rows.captures.size(), 1u);
  const FrameStageRecord& r = rows.captures[0].record;
  EXPECT_EQ(r.session, record.session);
  EXPECT_EQ(r.frame, record.frame);
  EXPECT_EQ(r.start_ns, record.start_ns);
  EXPECT_EQ(r.queue_ns, record.queue_ns);
  EXPECT_EQ(r.wall_ns, record.wall_ns);
  EXPECT_EQ(r.io_pages, record.io_pages);
  for (size_t s = 0; s < kNumTraceStages; ++s) {
    EXPECT_EQ(r.stages.ns[s], record.stages.ns[s]) << "stage " << s;
  }
  EXPECT_EQ(rows.captures[0].trip_threshold_ns, 1'000'000u);
}

TEST(SlowFrameTest, RunDumpAddsOnlyTheCapturesToTheRing) {
  // Nothing is lapped: every window event is still in the ring, so the
  // run dump holds the ring's events once each, plus the capture events.
  const uint16_t session = FlightInternName("slowtest-run");
  const uint16_t code = FlightInternName("slowtest-run-device");
  SlowFrameOptions opt;
  opt.threshold_ms = 0.0001;
  opt.percentile = 0.0;
  SlowFrameCapture cap(opt);
  FlightRecorder& recorder = GlobalFlightRecorder();
  for (uint64_t f = 0; f < 3; ++f) {
    FrameStageRecord record;
    record.session = session;
    record.frame = f;
    record.start_ns = FlightNowNs();
    {
      SessionTraceScope trace(session, f);
      FlightFrameScope frame(code, f);
      frame.set_io_pages(5 + f);
      recorder.Record(FlightEventType::kPageRead, code, 100 + f, 2);
      StageTraceScope stage(TraceStage::kFetch);
      recorder.RecordRead(code, 10, 3, /*seek=*/true);
    }
    record.wall_ns = FlightNowNs() - record.start_ns;
    record.io_pages = 5 + f;
    cap.OnFrame(record);
  }
  ASSERT_EQ(cap.captures(), 3u);

  const FlightDump ring = recorder.Drain();
  const FlightDump run = cap.RunDump(ring);
  EXPECT_EQ(run.dropped, ring.dropped);
  const std::map<uint8_t, FlightTotals> want = TotalsByType(ring);
  const std::map<uint8_t, FlightTotals> got = TotalsByType(run);
  for (const auto& [type, t] : got) {
    SCOPED_TRACE(static_cast<int>(type));
    const auto kind = static_cast<FlightEventType>(type);
    if (kind == FlightEventType::kSlowFrame ||
        kind == FlightEventType::kSlowFrameFact) {
      EXPECT_EQ(want.count(type), 0u);
      EXPECT_EQ(t.pages_read, 0u);
      EXPECT_EQ(t.frames, 0u);
      EXPECT_EQ(t.io_pages, 0u);
      continue;
    }
    ASSERT_EQ(want.count(type), 1u);
    EXPECT_EQ(t.events, want.at(type).events);
    EXPECT_EQ(t.pages_read, want.at(type).pages_read);
    EXPECT_EQ(t.frames, want.at(type).frames);
    EXPECT_EQ(t.io_pages, want.at(type).io_pages);
  }
  EXPECT_EQ(got.size(), want.size() + 2);
  EXPECT_TRUE(std::is_sorted(run.events.begin(), run.events.end(),
                             [](const FlightEvent& x, const FlightEvent& y) {
                               return x.ts_ns < y.ts_ns;
                             }));

  // The rows read back from the run dump are the capture's own.
  const SlowFrameRows from_run = RollUpSlowFrames(run);
  const SlowFrameRows from_capture = RollUpSlowFrames(cap.Snapshot());
  EXPECT_EQ(from_run.frames_seen, from_capture.frames_seen);
  EXPECT_EQ(from_run.captures_dropped, from_capture.captures_dropped);
  ASSERT_EQ(from_run.captures.size(), from_capture.captures.size());
  for (size_t i = 0; i < from_run.captures.size(); ++i) {
    SCOPED_TRACE(i);
    const SlowFrame& x = from_run.captures[i];
    const SlowFrame& y = from_capture.captures[i];
    EXPECT_EQ(x.record.session, y.record.session);
    EXPECT_EQ(x.record.frame, y.record.frame);
    EXPECT_EQ(x.record.start_ns, y.record.start_ns);
    EXPECT_EQ(x.record.wall_ns, y.record.wall_ns);
    EXPECT_EQ(x.record.io_pages, y.record.io_pages);
    EXPECT_EQ(x.trip_threshold_ns, y.trip_threshold_ns);
    // Frame begin and end, the page read and the fetch aggregate.
    EXPECT_EQ(y.events.size(), 4u);
    ASSERT_EQ(x.events.size(), y.events.size());
    for (size_t e = 0; e < x.events.size(); ++e) {
      EXPECT_TRUE(SameEvent(x.events[e], y.events[e])) << e;
    }
  }
}

TEST(SlowFrameTest, RunDumpKeepsWindowEventsTheRingLapped) {
  const uint16_t session = FlightInternName("slowtest-lapped");
  const uint16_t code = FlightInternName("slowtest-lapped-pool");
  SlowFrameOptions opt;
  opt.threshold_ms = 0.0001;
  opt.percentile = 0.0;
  SlowFrameCapture cap(opt);
  FlightRecorder& recorder = GlobalFlightRecorder();
  // A fresh thread has a ring of its own: record the frame's window,
  // capture it, then lap the ring so no window event survives there.
  std::thread([&] {
    FrameStageRecord record;
    record.session = session;
    record.start_ns = FlightNowNs();
    {
      SessionTraceScope trace(session, 0);
      recorder.Record(FlightEventType::kPoolMiss, code, 1, 0);
      recorder.Record(FlightEventType::kPoolHit, code, 2, 0);
    }
    record.wall_ns = FlightNowNs() - record.start_ns;
    cap.OnFrame(record);
    for (size_t i = 0; i < recorder.events_per_thread(); ++i) {
      recorder.Record(FlightEventType::kPoolHit, code, 3, 0);
    }
  }).join();
  ASSERT_EQ(cap.captures(), 1u);

  const SlowFrameRows captured = RollUpSlowFrames(cap.Snapshot());
  ASSERT_EQ(captured.captures.size(), 1u);
  const std::vector<FlightEvent>& window = captured.captures[0].events;
  ASSERT_EQ(window.size(), 2u);
  const FlightDump ring = recorder.Drain();
  const FlightDump run = cap.RunDump(ring);
  for (const FlightEvent& ev : window) {
    EXPECT_EQ(CountOf(ring.events, ev), 0u) << "lapped event " << ev.a;
    EXPECT_EQ(CountOf(run.events, ev), 1u) << "kept event " << ev.a;
  }
  const SlowFrameRows from_run = RollUpSlowFrames(run);
  ASSERT_EQ(from_run.captures.size(), 1u);
  ASSERT_EQ(from_run.captures[0].events.size(), window.size());
  for (size_t e = 0; e < window.size(); ++e) {
    EXPECT_TRUE(SameEvent(from_run.captures[0].events[e], window[e]));
  }
}

TEST(SlowFrameTest, PercentileCutMatchesBruteForce) {
  // The sorted window against WallPercentile over a copy of the previous
  // ring_frames service times: many ties, some outliers, and 25 laps of
  // the ring.
  SlowFrameOptions opt;
  opt.threshold_ms = 0.0;
  opt.percentile = 0.9;
  opt.warmup_frames = 10;
  opt.ring_frames = 97;
  opt.max_captures = 1 << 20;
  SlowFrameCapture cap(opt);
  std::mt19937_64 rng(20261018);
  std::deque<uint64_t> previous;
  std::vector<std::pair<uint64_t, uint64_t>> expected;
  for (uint64_t f = 0; f < 2500; ++f) {
    FrameStageRecord r;
    r.session = 1;
    r.frame = f;
    r.start_ns = (f + 1) * 1'000'000'000;
    r.wall_ns = (1 + rng() % 16) * 1000;  // 16 distinct values.
    if (rng() % 40 == 0) {
      r.wall_ns *= 100;
    }
    if (f >= opt.warmup_frames) {
      const auto cut = static_cast<uint64_t>(telemetry::WallPercentile(
          std::vector<double>(previous.begin(), previous.end()),
          opt.percentile));
      if (r.wall_ns > cut) {
        expected.emplace_back(f, cut);
      }
    }
    cap.OnFrame(r);
    previous.push_back(r.wall_ns);
    if (previous.size() > opt.ring_frames) {
      previous.pop_front();
    }
  }
  ASSERT_GT(expected.size(), 100u);
  std::vector<std::pair<uint64_t, uint64_t>> captured;
  for (const SlowFrame& row : RollUpSlowFrames(cap.Snapshot()).captures) {
    captured.emplace_back(row.record.frame, row.trip_threshold_ns);
  }
  EXPECT_EQ(captured, expected);
}

TEST(SlowFrameTest, WindowMatchesFilteredDrain) {
  // A tripping frame reads only the rings' tails since its start
  // (FlightRecorder::EventsSince). Its window must equal what a full
  // Drain(false) filtered on session and time gives, event for event and
  // in the same order: three threads record at once, one of them laps
  // its ring, and the windows are drawn at random.
  const uint16_t sessions[] = {FlightInternName("slowtest-window-0"),
                               FlightInternName("slowtest-window-1"),
                               FlightInternName("slowtest-window-2")};
  const uint16_t code = FlightInternName("slowtest-window-pool");
  FlightRecorder& recorder = GlobalFlightRecorder();
  const size_t counts[] = {recorder.events_per_thread() + 5000, 3000, 3000};
  // Each thread attaches its ring (first event) before any records on.
  // Otherwise a short thread can exit before the lapping one starts and
  // hand it its ring, whose events the lapping thread then overwrites.
  std::latch attached(3);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < counts[t]; ++i) {
        // Every fourth event is unattributed.
        SessionTraceScope trace(i % 4 == 3 ? 0 : sessions[t], i);
        recorder.Record(i % 2 == 0 ? FlightEventType::kPoolHit
                                   : FlightEventType::kPoolMiss,
                        code, i, t);
        if (i == 0) {
          attached.arrive_and_wait();
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const FlightDump drained = recorder.Drain(/*consume=*/false);
  ASSERT_GT(recorder.events_dropped(), 0u);  // The first ring lapped.
  std::vector<uint64_t> stamps;
  std::vector<uint64_t> session_stamps[3];
  for (const FlightEvent& ev : drained.events) {
    if (ev.code == code) {
      stamps.push_back(ev.ts_ns);
      for (size_t t = 0; t < 3; ++t) {
        if (ev.session == sessions[t]) {
          session_stamps[t].push_back(ev.ts_ns);
        }
      }
    }
  }
  ASSERT_FALSE(stamps.empty());
  for (const std::vector<uint64_t>& own : session_stamps) {
    ASSERT_FALSE(own.empty());
  }

  SlowFrameOptions opt;
  opt.threshold_ms = 1e-9;  // Every frame trips.
  opt.percentile = 0.0;
  opt.max_captures = 1 << 20;
  SlowFrameCapture cap(opt);
  std::mt19937_64 rng(20261019);
  size_t nonempty = 0;
  for (int w = 0; w < 200; ++w) {
    FrameStageRecord record;
    const size_t owner = rng() % 3;
    record.session = sessions[owner];
    record.frame = static_cast<uint64_t>(w);
    // Windows open and close on recorded stamps (both ends inclusive)
    // or at random points of the run. A stamp-anchored window opens on
    // one of its own session's events, so it holds at least that event
    // however the threads interleaved.
    const uint64_t first = stamps.front();
    const uint64_t last = stamps.back();
    const std::vector<uint64_t>& own = session_stamps[owner];
    record.start_ns = w % 2 == 0 ? own[rng() % own.size()]
                                 : first + rng() % (last - first + 1);
    const uint64_t end = std::max(
        record.start_ns, w % 3 == 0 ? stamps[rng() % stamps.size()]
                                    : record.start_ns + rng() % 200'000);
    record.wall_ns = std::max<uint64_t>(1, end - record.start_ns);  // Trips.
    if (w == 0) {
      record.start_ns = 0;  // The whole ring.
      record.wall_ns = UINT64_MAX / 2;
    }

    std::vector<FlightEvent> want;
    for (const FlightEvent& ev : drained.events) {
      if (ev.session == record.session && ev.ts_ns >= record.start_ns &&
          ev.ts_ns <= record.start_ns + record.wall_ns) {
        want.push_back(ev);
      }
    }
    // One capture per window: random windows of a session may overlap,
    // and a dump gives an event to one capture only.
    cap.Configure(opt);
    cap.OnFrame(record);
    const SlowFrameRows rows = RollUpSlowFrames(cap.Snapshot());
    ASSERT_EQ(rows.captures.size(), 1u);
    const std::vector<FlightEvent>& got = rows.captures[0].events;
    ASSERT_EQ(got.size(), want.size()) << "window " << w;
    for (size_t e = 0; e < got.size(); ++e) {
      ASSERT_TRUE(SameEvent(got[e], want[e]))
          << "window " << w << " event " << e;
    }
    nonempty += got.empty() ? 0 : 1;

    // Unfiltered, the tail read is the drain's suffix from the bound on.
    std::vector<FlightEvent> suffix;
    for (const FlightEvent& ev : drained.events) {
      if (ev.ts_ns >= record.start_ns) {
        suffix.push_back(ev);
      }
    }
    const std::vector<FlightEvent> since =
        recorder.EventsSince(record.start_ns);
    ASSERT_EQ(since.size(), suffix.size()) << "window " << w;
    for (size_t e = 0; e < since.size(); ++e) {
      ASSERT_TRUE(SameEvent(since[e], suffix[e]))
          << "window " << w << " event " << e;
    }
  }

  EXPECT_GT(nonempty, 40u);  // Not a vacuous comparison.
}

TEST(SlowFrameTest, WindowReadRespectsConsumedDrains) {
  // A consuming drain moves where both reads start; a small ring laps
  // (a lapped ring gives up its oldest slot, the one a writer could be
  // filling).
  FlightRecorder recorder(64);
  const uint16_t code = FlightInternName("slowtest-consumed");
  for (uint64_t i = 0; i < 100; ++i) {
    recorder.Record(FlightEventType::kPoolHit, code, i, 0);
  }
  ASSERT_EQ(recorder.Drain(/*consume=*/true).events.size(), 63u);
  // The 36 overwritten events and the given-up slot are dropped, once.
  EXPECT_EQ(recorder.events_dropped(), 37u);
  for (uint64_t i = 100; i < 150; ++i) {
    recorder.Record(FlightEventType::kPoolHit, code, i, 0);
  }
  const FlightDump drained = recorder.Drain(/*consume=*/false);
  const std::vector<FlightEvent> since = recorder.EventsSince(0);
  ASSERT_EQ(drained.events.size(), 50u);
  ASSERT_EQ(since.size(), drained.events.size());
  for (size_t e = 0; e < since.size(); ++e) {
    EXPECT_TRUE(SameEvent(since[e], drained.events[e])) << e;
  }
  EXPECT_EQ(drained.dropped, 37u);
  // Consuming the 50 unlapped events accounts all 150: 63 + 50 drained,
  // 37 dropped.
  EXPECT_EQ(recorder.Drain(/*consume=*/true).events.size(), 50u);
  EXPECT_EQ(recorder.events_recorded(), 150u);
  EXPECT_EQ(recorder.events_dropped(), 37u);
}

TEST(SlowFrameTest, ChromeTraceHasOneTrackPerSession) {
  const uint16_t walk = FlightInternName("u0.walk");
  const uint16_t turn = FlightInternName("u1.turn");
  SlowFrameOptions opt;
  opt.threshold_ms = 2.0;
  opt.percentile = 0.0;
  SlowFrameCapture cap(opt);
  for (uint16_t session : {walk, turn}) {
    FrameStageRecord record = MakeRecord(session, 5, 4.0, /*queue_ms=*/1.0);
    record.start_ns = 10'000'000;  // Fixed, so the queue slice fits.
    cap.OnFrame(record);
  }
  FlightDump dump = cap.Snapshot();
  for (uint16_t session : {walk, turn}) {
    FlightEvent ev;
    ev.ts_ns = 10'001'000;
    ev.type = static_cast<uint8_t>(FlightEventType::kPoolMiss);
    ev.session = session;
    ev.stage = static_cast<uint8_t>(TraceStage::kFetch);
    dump.events.push_back(ev);
  }
  std::stable_sort(dump.events.begin(), dump.events.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.ts_ns < y.ts_ns;
                   });

  const std::string json = telemetry::ChromeTraceJson(dump);
  // Captured frames render under the flight pid with one named track per
  // session (tid = 65536 + session id, clear of the ring threads).
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_EQ(json.find("\"pid\":4"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"u0.walk\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"u1.turn\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":" + std::to_string(65536 + walk)),
            std::string::npos);
  EXPECT_NE(json.find("\"tid\":" + std::to_string(65536 + turn)),
            std::string::npos);
  // Queue wait and the frame itself are complete ("X") slices; stage
  // breakdown slices carry the stage names; io events become instants.
  EXPECT_NE(json.find("\"name\":\"queue wait\""), std::string::npos);
  EXPECT_NE(json.find("frame 5 (slow)"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"search\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"trip_threshold_ms\":2"), std::string::npos);
}

TEST(SlowFrameTest, CaptureEventsAddNothingToFlightTotals) {
  // A capture's record rides in kSlowFrame / kSlowFrameFact events; its
  // io_pages and stage times must not read as frames or billed pages.
  SlowFrameOptions opt;
  opt.threshold_ms = 1.0;
  opt.percentile = 0.0;
  SlowFrameCapture cap(opt);
  FrameStageRecord record =
      MakeRecord(FlightInternName("slowtest-rollup"), 3, 2.0, 0.5);
  record.io_pages = 41;
  cap.OnFrame(record);
  const FlightDump dump = cap.Snapshot();
  ASSERT_EQ(RollUpSlowFrames(dump).captures.size(), 1u);
  const telemetry::FlightRollup rollup = telemetry::RollUpFlightDump(dump);
  EXPECT_GT(rollup.by_type.at(
                static_cast<uint8_t>(FlightEventType::kSlowFrame)),
            0u);
  for (const auto* totals : {&rollup.by_source, &rollup.by_session}) {
    for (const auto& [name, t] : *totals) {
      SCOPED_TRACE(name);
      EXPECT_EQ(t.frames, 0u);
      EXPECT_EQ(t.io_pages, 0u);
      EXPECT_EQ(t.pages_read, 0u);
    }
  }
  for (const telemetry::FlightTotals& t : rollup.by_stage) {
    EXPECT_EQ(t.frames, 0u);
    EXPECT_EQ(t.io_pages, 0u);
    EXPECT_EQ(t.pages_read, 0u);
  }
}

TEST(SlowFrameTest, UntrustedCaptureEventsStayInBounds) {
  // A capture dump read from a file can hold anything. Every reader —
  // the decoder, the row grouping, the rollup and the Chrome export —
  // must return a Status or skip what it cannot place, never index out
  // of bounds (this suite also runs under ASan/UBSan).
  FlightDump dump;
  dump.names = {"?", "sess", "slow_frame", "queue_ns", "stage_ns", "bogus"};
  while (dump.names.size() < 300) {  // A capture dump may pass 256 names.
    dump.names.push_back("pad" + std::to_string(dump.names.size()));
  }
  const auto event = [](uint64_t ts, FlightEventType type, uint16_t code,
                        uint16_t session, uint8_t stage, uint64_t a,
                        uint64_t b) {
    FlightEvent ev;
    ev.ts_ns = ts;
    ev.type = static_cast<uint8_t>(type);
    ev.code = code;
    ev.session = session;
    ev.stage = stage;
    ev.a = a;
    ev.b = b;
    return ev;
  };
  const auto fact = FlightEventType::kSlowFrameFact;
  dump.events = {
      event(100, FlightEventType::kSlowFrame, 2, 1, 0, 7, 50),
      event(100, fact, 4, 1, 255, 7, 99),  // Stage out of range.
      event(100, fact, 4, 1, 2, 7, 20),
      event(100, fact, 3, 1, 0, 8, 5),      // Orphan: no frame 8.
      event(100, fact, 5, 1, 0, 7, 6),      // Unknown key.
      event(100, fact, 999, 1, 0, 7, 6),    // Key id past the table.
      event(120, FlightEventType::kPoolMiss, 0, 1, 255, 1, 0),
      event(200, FlightEventType::kPageRead, 999, 1, 0, 1, 2),
      event(50, FlightEventType::kPoolHit, 0, 2, 0, 1, 0),  // Out of order.
      // A truncated capture: a frame with no facts, an unnamed session
      // and a service time that would overflow its window's end.
      event(300, FlightEventType::kSlowFrame, 2, 999, 0, 9, UINT64_MAX),
      event(400, FlightEventType::kPoolHit, 0, 999, 0, 1, 0),
      event(500, FlightEventType::kSpanEnd, 0, 0, 0, 3, 0),  // Unpaired.
  };

  const std::string encoded = EncodeFlightDump(dump);
  for (size_t cut : {size_t{1}, size_t{16}, size_t{32}, encoded.size() - 20}) {
    Result<FlightDump> truncated =
        DecodeFlightDump(encoded.substr(0, encoded.size() - cut));
    ASSERT_FALSE(truncated.ok()) << cut;
    EXPECT_TRUE(truncated.status().IsCorruption()) << cut;
  }
  Result<FlightDump> back = DecodeFlightDump(encoded);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->names.size(), 300u);
  ASSERT_EQ(back->events.size(), dump.events.size());

  const SlowFrameRows rows = RollUpSlowFrames(*back);
  ASSERT_EQ(rows.captures.size(), 2u);
  const SlowFrame& first = rows.captures[0];
  EXPECT_EQ(first.record.frame, 7u);
  EXPECT_EQ(first.record.wall_ns, 50u);
  EXPECT_EQ(first.record.queue_ns, 0u);  // The queue fact was an orphan.
  EXPECT_EQ(first.record.stages.ns[2], 20u);
  EXPECT_EQ(first.record.stages.total_ns(), 20u);
  ASSERT_EQ(first.events.size(), 1u);  // The 120 ns pool miss; 200 is late.
  EXPECT_EQ(first.events[0].ts_ns, 120u);
  const SlowFrame& truncated = rows.captures[1];
  EXPECT_EQ(truncated.record.session, 999u);
  EXPECT_EQ(truncated.trip_threshold_ns, 0u);
  EXPECT_EQ(truncated.events.size(), 1u);
  EXPECT_EQ(rows.frames_seen, 0u);

  // The span runs from the earliest to the latest stamp, not from the
  // first event to the last.
  const telemetry::FlightRollup rollup = telemetry::RollUpFlightDump(*back);
  EXPECT_EQ(rollup.first_ns, 50u);
  EXPECT_EQ(rollup.last_ns, 500u);

  const std::string json = telemetry::ChromeTraceJson(*back);
  EXPECT_NE(json.find("frame 7 (slow)"), std::string::npos);
  EXPECT_NE(json.find("frame 9 (slow)"), std::string::npos);
}

TEST(SlowFrameTest, ConcurrentOnFrameIsSafe) {
  // TSan exercise: concurrent feeders, some tripping captures.
  SlowFrameOptions opt;
  opt.threshold_ms = 1.5;
  opt.percentile = 0.0;
  opt.max_captures = 8;
  SlowFrameCapture cap(opt);
  constexpr size_t kThreads = 4;
  constexpr uint64_t kFrames = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &cap] {
      for (uint64_t f = 0; f < kFrames; ++f) {
        const double wall_ms = f % 100 == 0 ? 2.0 : 0.5;
        cap.OnFrame(MakeRecord(static_cast<uint16_t>(t + 1), f, wall_ms));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(cap.frames_seen(), kThreads * kFrames);
  EXPECT_EQ(cap.captures(), 8u);  // Trips beyond the cap are dropped.
  EXPECT_GT(RollUpSlowFrames(cap.Snapshot()).captures_dropped, 0u);
}

}  // namespace
}  // namespace hdov
