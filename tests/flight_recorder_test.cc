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
#include "telemetry/trace_context.h"
#include "temp_path.h"

namespace hdov {
namespace {

using telemetry::DecodeFlightDump;
using telemetry::EncodeFlightDump;
using telemetry::FlightChromeTraceJson;
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
  // No event is lost AND kept: drained + dropped covers every record.
  // (Conservatively discarded drain slots are the only slack, and they
  // are re-drained on the next pass or counted dropped at the end.)
  EXPECT_EQ(recorder.events_recorded(), kWriters * kPerWriter);
  EXPECT_LE(drained + dropped, kWriters * kPerWriter);
  EXPECT_GT(drained, 0u);
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

  const std::string json = FlightChromeTraceJson(dump);
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
