// ChromeTraceJson: the one Chrome trace-event (catapult) exporter. Every
// track the repo can show goes through it, under one pid table:
//
//   pid 1  frames (simulated time)  FrameRecords: one track per emitting
//          system, an "X" slice per frame/query whose length is its
//          simulated time, and an io_pages counter track.
//   pid 2  search trace (wall time)  a TraceRecorder's dump.
//   pid 3  flight recorder (wall time)  a drained or loaded ring dump.
//   pid 4  slow frames (wall time)  SlowDump captures: one track per
//          session with queue-wait, frame and stage slices.
//
// Pids 2 and 3 share one conversion: span and frame boundaries pair into
// "B"/"E" events per thread at their FlightNowNs stamps, a span's
// attribute events become its "B" args, and page / pool / prefetch events
// become instants (also on the pid 4 tracks, at their true stamps). The
// result loads in chrome://tracing or ui.perfetto.dev.

#ifndef HDOV_TELEMETRY_CHROME_TRACE_H_
#define HDOV_TELEMETRY_CHROME_TRACE_H_

#include <string>
#include <vector>

#include "telemetry/flight_recorder.h"
#include "telemetry/slow_frame.h"
#include "telemetry/telemetry.h"

namespace hdov::telemetry {

// What to export; null sources are left out (and get no process name).
struct ChromeTraceSources {
  const std::vector<FrameRecord>* frames = nullptr;  // pid 1.
  const FlightDump* trace = nullptr;                 // pid 2.
  const FlightDump* flight = nullptr;                // pid 3.
  const SlowDump* slow = nullptr;                    // pid 4.
};

std::string ChromeTraceJson(const ChromeTraceSources& sources);

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_CHROME_TRACE_H_
