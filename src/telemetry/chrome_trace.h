// ChromeTraceJson: the one Chrome trace-event (catapult) exporter. Every
// track the repo can show goes through it, under one pid table:
//
//   pid 1  frames (simulated time)  FrameRecords: one track per emitting
//          system, an "X" slice per frame/query whose length is its
//          simulated time, and an io_pages counter track.
//   pid 3  flight recorder (wall time)  a drained or loaded dump: a ring
//          dump, a SlowFrameCapture's, or a bench's --flight-out run dump
//          (the ring, the slow-frame captures and the sampled spans).
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
#include <vector>

#include "telemetry/flight_recorder.h"
#include "telemetry/telemetry.h"

namespace hdov::telemetry {

// What to export; null sources are left out (and get no process name).
struct ChromeTraceSources {
  const std::vector<FrameRecord>* frames = nullptr;  // pid 1.
  const FlightDump* flight = nullptr;                // pid 3.
};

std::string ChromeTraceJson(const ChromeTraceSources& sources);

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_CHROME_TRACE_H_
