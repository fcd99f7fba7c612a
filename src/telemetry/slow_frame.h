// SlowFrameCapture: triggered deep-dive capture for outlier frames. An
// always-on ring keeps the stage breakdown of the last N frames (fed by
// SessionPlayer::PlayNext, for solo and served playback); when a frame's
// service time exceeds a threshold — absolute milliseconds, a trailing
// percentile of the ring, or both — the capture atomically snapshots
// that frame's record together with the flight-recorder events of its
// session/time window. Captures ride in the benches' --flight-out dump
// (the "HDOVFREC" container, see RunDump): each frame is one kSlowFrame
// event plus kSlowFrameFact events for the rest of its record, next to
// the window's events. `hdov_inspect --flight` lists them, and the
// Chrome conversion draws one track per session
// (telemetry/chrome_trace.h); RollUpSlowFrames (telemetry/flight_rollup.h)
// reads them back.
//
// Like the flight recorder it rides on, the capture only reads the
// flight clock and thread-local state — never the SimClock, IoStats, or
// a metrics registry — so enabling it cannot move a simulated counter.

#ifndef HDOV_TELEMETRY_SLOW_FRAME_H_
#define HDOV_TELEMETRY_SLOW_FRAME_H_

#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "telemetry/flight_recorder.h"
#include "telemetry/trace_context.h"

namespace hdov::telemetry {

// One frame's latency identity: who ran it, when, how long it queued and
// executed, and where the service time went stage by stage.
struct FrameStageRecord {
  uint16_t session = 0;   // FlightInternName id of the session name.
  uint64_t frame = 0;     // Session-local frame index.
  uint64_t start_ns = 0;  // Dispatch timestamp (FlightNowNs timeline).
  uint64_t queue_ns = 0;  // Enqueue→dispatch wait (0 outside a scheduler).
  uint64_t wall_ns = 0;   // Dispatch→complete service time.
  uint64_t io_pages = 0;  // Simulated pages billed to the frame.
  StageBreakdown stages;  // Exclusive per-stage service-time split.
};

// One captured slow frame: its record, the threshold it tripped, and the
// flight events of its session stamped within [start_ns, start_ns +
// wall_ns] (best effort — tiny rings may have been lapped already).
struct SlowFrame {
  FrameStageRecord record;
  uint64_t trip_threshold_ns = 0;
  std::vector<FlightEvent> events;
};

struct SlowFrameOptions {
  size_t ring_frames = 512;    // Trailing window (breakdowns + percentile).
  double threshold_ms = 0.0;   // Absolute trigger; 0 disables.
  double percentile = 0.99;    // Trailing-percentile trigger; 0 disables.
  size_t warmup_frames = 64;   // Frames before the percentile can fire.
  size_t max_captures = 32;    // Hard cap on deep captures kept.
};

// The names a capture dump appends to its own table, in this order: the
// code of its kSlowFrame events, then the keys of its kSlowFrameFact
// events. A fact whose value is 0 is not written.
enum SlowFrameName : uint8_t {
  kSlowFrameCode, kFactQueueNs, kFactIoPages, kFactTripThresholdNs,
  kFactStageNs, kFactFramesSeen, kFactCapturesDropped, kNumSlowFrameNames
};
inline constexpr std::string_view kSlowFrameNames[kNumSlowFrameNames] = {
    "slow_frame", "queue_ns", "io_pages", "trip_threshold_ns",
    "stage_ns",   "frames_seen", "captures_dropped"};

class SlowFrameCapture {
 public:
  explicit SlowFrameCapture(const SlowFrameOptions& options = {});

  SlowFrameCapture(const SlowFrameCapture&) = delete;
  SlowFrameCapture& operator=(const SlowFrameCapture&) = delete;

  // Replaces the options and clears ring/captures/counters. Call between
  // runs, not mid-run. ring_frames = 0 turns the capture off.
  void Configure(const SlowFrameOptions& options);

  // Feeds one completed frame; decides the trigger and (on trip) reads
  // the global flight recorder's events since the frame's start
  // (FlightRecorder::EventsSince) for its window. Thread-safe.
  void OnFrame(const FrameStageRecord& record);

  uint64_t frames_seen() const;
  size_t captures() const;

  // The captures so far as a flight dump: the global name table plus the
  // capture names, then each frame's capture events and window events in
  // timestamp order, then the frames_seen and captures_dropped facts.
  FlightDump Snapshot() const;

  // The run dump behind --flight-out: `ring`, a Drain() of the global
  // flight recorder, merged with Snapshot(), in timestamp order. Each
  // recorded event appears once: a window event is a byte copy of a ring
  // event, so one the ring still holds (matched on the whole record, as
  // a multiset) is not written again, and one the ring has lapped is
  // kept. `ring`'s dropped count carries over.
  FlightDump RunDump(FlightDump ring) const;

 private:
  // Returns the trip threshold in ms if `wall_ns` should be captured.
  double TripThresholdMs(uint64_t wall_ns) const;  // Requires mu_.

  mutable std::mutex mu_;
  SlowFrameOptions options_;
  uint64_t frames_seen_ = 0;
  uint64_t captures_dropped_ = 0;
  std::vector<FrameStageRecord> ring_;  // Circular, ring_frames capacity.
  size_t ring_next_ = 0;
  std::vector<uint64_t> sorted_walls_;  // ring_'s wall_ns, ascending.
  std::vector<SlowFrame> captures_;
};

// The process-wide capture SessionPlayer::PlayNext feeds. Always on with
// default options; benches re-Configure() it when --flight-out is
// requested.
SlowFrameCapture& GlobalSlowFrameCapture();

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_SLOW_FRAME_H_
