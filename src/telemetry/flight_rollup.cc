#include "telemetry/flight_rollup.h"

namespace hdov::telemetry {

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
  for (const FlightEvent& e : dump.events) {
    ++rollup.by_type[e.type];
    ++rollup.by_thread[e.thread];
    if (e.stage < kNumTraceStages) {
      rollup.by_stage[e.stage].Add(e);
    }
    const std::string session =
        e.session != 0 && e.session < dump.names.size()
            ? dump.names[e.session]
            : std::string("<unattributed>");
    rollup.by_session[session].Add(e);
    rollup.by_source[std::string(dump.NameOf(e))].Add(e);
  }
  return rollup;
}

}  // namespace hdov::telemetry
