// ChromeTraceJson: the one Chrome trace-event (catapult) exporter. Every
// track the repo can show goes through it, from one run dump, under one
// pid table:
//
//   pid 1  frames (simulated time)  the dump's FrameRecords
//          (FrameRecordsFromDump): one track per emitting system, an "X"
//          slice per frame/query whose length is its simulated time, and
//          an io_pages counter track. Left out when the dump holds none.
//   pid 3  flight recorder (wall time)  the dump's events: a ring dump, a
//          SlowFrameCapture's, or a bench's --flight-out run dump (the
//          ring, the slow-frame captures and the sampled spans).
//
// Span and frame boundaries pair into "B"/"E" events per thread at their
// FlightNowNs stamps, a span's attribute events become its "B" args, and
// page / pool / prefetch events become instants. A dump's captured slow
// frames (RollUpSlowFrames) add one track per session with queue-wait,
// frame and stage "X" slices. The result loads in chrome://tracing or
// ui.perfetto.dev.

#ifndef HDOV_TELEMETRY_CHROME_TRACE_H_
#define HDOV_TELEMETRY_CHROME_TRACE_H_

#include <string>

#include "telemetry/flight_recorder.h"

namespace hdov::telemetry {

std::string ChromeTraceJson(const FlightDump& dump);

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_CHROME_TRACE_H_
