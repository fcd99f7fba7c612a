#include "telemetry/flight_rollup.h"

#include <algorithm>
#include <string_view>
#include <iterator>
#include <tuple>

namespace hdov::telemetry {

namespace {

// A run dump's frame records (kFrameRecord, kFrameFact): simulated-time
// records appended after the run, with no thread, session or stage.
bool IsFrameRecordEvent(const FlightEvent& e) {
  const auto type = static_cast<FlightEventType>(e.type);
  return type == FlightEventType::kFrameRecord ||
         type == FlightEventType::kFrameFact;
}

}  // namespace

void FlightTotals::Add(const FlightEvent& e) {
  ++events;
  pages_read += FlightReadPages(e);
  runs += FlightReadRuns(e);
  seeks += FlightReadSeeks(e);
  if (e.stage == static_cast<uint8_t>(TraceStage::kPrefetch)) {
    prefetch_issued += FlightReadPages(e);
  }
  switch (static_cast<FlightEventType>(e.type)) {
    case FlightEventType::kPrefetchUsed:
      prefetch_used += e.b;
      break;
    case FlightEventType::kPrefetchCancel:
      prefetch_cancelled += e.a;
      break;
    case FlightEventType::kPoolHit:
      ++pool_hits;
      break;
    case FlightEventType::kPoolMiss:
      ++pool_misses;
      break;
    case FlightEventType::kFrameEnd:
      ++frames;
      io_pages += e.b;
      break;
    case FlightEventType::kSpanBegin:
      ++spans;
      break;
    default:
      break;
  }
}

FlightRollup RollUpFlightDump(const FlightDump& dump) {
  FlightRollup rollup;
  if (!dump.events.empty()) {
    rollup.first_ns = UINT64_MAX;
  }
  for (const FlightEvent& e : dump.events) {
    rollup.first_ns = std::min(rollup.first_ns, e.ts_ns);
    rollup.last_ns = std::max(rollup.last_ns, e.ts_ns);
    ++rollup.by_type[e.type];
    if (IsFrameRecordEvent(e)) {
      continue;  // Counted by type only.
    }
    ++rollup.by_thread[e.thread];
    if (e.stage < kNumTraceStages) {
      rollup.by_stage[e.stage].Add(e);
    }
    const std::string session =
        e.session != 0 && e.session < dump.names.size()
            ? dump.names[e.session]
            : std::string("<unattributed>");
    rollup.by_session[session].Add(e);
    // A span attribute's code is its key, not a source.
    if (static_cast<FlightEventType>(e.type) != FlightEventType::kSpanAttr) {
      rollup.by_source[std::string(dump.NameOf(e))].Add(e);
    }
  }
  return rollup;
}

SlowFrameRows RollUpSlowFrames(const FlightDump& dump) {
  SlowFrameRows rows;
  // Rows by (session, dispatch, frame): a fact finds its frame by the
  // three values it repeats, a window event by its session and stamp.
  std::map<std::tuple<uint16_t, uint64_t, uint64_t>, size_t> frames;
  for (const FlightEvent& e : dump.events) {
    if (static_cast<FlightEventType>(e.type) == FlightEventType::kSlowFrame &&
        frames.try_emplace({e.session, e.ts_ns, e.a}, rows.captures.size())
            .second) {
      SlowFrame& row = rows.captures.emplace_back();
      row.record.session = e.session;
      row.record.frame = e.a;
      row.record.start_ns = e.ts_ns;
      row.record.wall_ns = e.b;
    }
  }
  for (const FlightEvent& e : dump.events) {
    const auto type = static_cast<FlightEventType>(e.type);
    if (type == FlightEventType::kSlowFrame || IsFrameRecordEvent(e)) {
      continue;
    }
    if (type != FlightEventType::kSlowFrameFact) {
      // A window event goes to the frame of its session dispatched last
      // at or before it, when it lies in that frame's service interval:
      // a session's frames do not overlap, and an event lands in at most
      // one row whatever a file holds.
      auto it = frames.upper_bound({e.session, e.ts_ns, UINT64_MAX});
      if (it != frames.begin() && std::get<0>((--it)->first) == e.session) {
        SlowFrame& row = rows.captures[it->second];
        if (e.ts_ns - row.record.start_ns <= row.record.wall_ns) {
          row.events.push_back(e);
        }
      }
      continue;
    }
    const std::string_view* names = std::begin(kSlowFrameNames);
    const auto key = static_cast<SlowFrameName>(
        std::find(names, std::end(kSlowFrameNames), dump.NameOf(e)) - names);
    const auto it = frames.find({e.session, e.ts_ns, e.a});
    SlowFrame* row =
        it == frames.end() ? nullptr : &rows.captures[it->second];
    if (key == kFactFramesSeen) {
      rows.frames_seen = e.b;
    } else if (key == kFactCapturesDropped) {
      rows.captures_dropped = e.b;
    } else if (row == nullptr) {
      continue;  // An orphan: no kSlowFrame of its own.
    } else if (key == kFactQueueNs) {
      row->record.queue_ns = e.b;
    } else if (key == kFactIoPages) {
      row->record.io_pages = e.b;
    } else if (key == kFactTripThresholdNs) {
      row->trip_threshold_ns = e.b;
    } else if (key == kFactStageNs && e.stage < kNumTraceStages) {
      row->record.stages.ns[e.stage] = e.b;
    }
  }
  return rows;
}

}  // namespace hdov::telemetry
