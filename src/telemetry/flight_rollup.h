// FlightRollup: the totals a drained flight dump adds up to, by event
// type, ring thread, source (event code; a span attribute's code is its
// key, so attributes count under no source), session and stage. This is
// what `hdov_inspect --flight` prints, kept in the library so tests can
// hold it to the simulated counters: a source's pages_read counts every
// billed page whether the ring holds it as a per-run kPageRead or inside
// a kPageReadAgg.
//
// SlowFrameRows: the slow frames of a dump (telemetry/slow_frame.h)
// grouped back into one row per captured frame, for `hdov_inspect
// --flight` and the Chrome conversion. A dump read from a file may hold
// anything, so facts without their kSlowFrame, unknown keys and stages
// out of range are skipped.

#ifndef HDOV_TELEMETRY_FLIGHT_ROLLUP_H_
#define HDOV_TELEMETRY_FLIGHT_ROLLUP_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "telemetry/flight_recorder.h"
#include "telemetry/slow_frame.h"
#include "telemetry/trace_context.h"

namespace hdov::telemetry {

struct FlightTotals {
  uint64_t events = 0;
  uint64_t pages_read = 0;  // kPageRead and kPageReadAgg pages.
  uint64_t runs = 0;        // Billed read runs behind pages_read.
  uint64_t seeks = 0;       // Seeks of kPageReadAgg (per-run reads carry none).
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t frames = 0;
  uint64_t io_pages = 0;  // Billed pages attributed to kFrameEnd.
  uint64_t spans = 0;
  // Async prefetch pipeline accounting (docs/prefetch.md). Issued = pages
  // read in the prefetch stage, per run or aggregated; used/cancelled come
  // from their dedicated event types.
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_used = 0;
  uint64_t prefetch_cancelled = 0;

  void Add(const FlightEvent& e);
};

struct FlightRollup {
  std::map<uint8_t, uint64_t> by_type;      // Event count per type.
  std::map<uint16_t, uint64_t> by_thread;   // Event count per ring.
  std::map<std::string, FlightTotals> by_source;
  // Keyed by session name; v1 events land on "<unattributed>".
  std::map<std::string, FlightTotals> by_session;
  FlightTotals by_stage[kNumTraceStages];
  // Earliest and latest event stamps (0 for an empty dump); a file's
  // events need not be in order.
  uint64_t first_ns = 0;
  uint64_t last_ns = 0;
};

FlightRollup RollUpFlightDump(const FlightDump& dump);

// Facts a dump leaves out read as 0. A frame's events are in dump order;
// an event two frames' intervals share goes to the later frame only.
struct SlowFrameRows {
  std::vector<SlowFrame> captures;  // In dump order.
  uint64_t frames_seen = 0;
  uint64_t captures_dropped = 0;
};

SlowFrameRows RollUpSlowFrames(const FlightDump& dump);

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_FLIGHT_ROLLUP_H_
