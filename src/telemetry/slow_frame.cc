#include "telemetry/slow_frame.h"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "telemetry/metrics.h"

namespace hdov::telemetry {

namespace {

// Orders events on the whole 32-byte record, so equal keys are equal
// bytes.
bool RecordLess(const FlightEvent& x, const FlightEvent& y) {
  return std::tie(x.ts_ns, x.type, x.stage, x.code, x.thread, x.session,
                  x.a, x.b) < std::tie(y.ts_ns, y.type, y.stage, y.code,
                                       y.thread, y.session, y.a, y.b);
}

bool IsCaptureEvent(const FlightEvent& e) {
  const auto type = static_cast<FlightEventType>(e.type);
  return type == FlightEventType::kSlowFrame ||
         type == FlightEventType::kSlowFrameFact;
}

bool TsLess(const FlightEvent& x, const FlightEvent& y) {
  return x.ts_ns < y.ts_ns;
}

}  // namespace

SlowFrameCapture::SlowFrameCapture(const SlowFrameOptions& options)
    : options_(options) {}

void SlowFrameCapture::Configure(const SlowFrameOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  frames_seen_ = 0;
  captures_dropped_ = 0;
  ring_.clear();
  ring_next_ = 0;
  sorted_walls_.clear();
  captures_.clear();
}

double SlowFrameCapture::TripThresholdMs(uint64_t wall_ns) const {
  const double wall_ms = static_cast<double>(wall_ns) / 1e6;
  if (options_.threshold_ms > 0.0 && wall_ms >= options_.threshold_ms) {
    return options_.threshold_ms;
  }
  if (options_.percentile > 0.0 && frames_seen_ >= options_.warmup_frames &&
      !sorted_walls_.empty()) {
    // Trailing percentile of the ring's service times (the ring holds the
    // previous frames; the candidate itself is not yet inserted), at
    // WallPercentile's rank, so the cut is an observed wall_ns.
    const uint64_t cut_ns = sorted_walls_[NearestRank(
        sorted_walls_.size(), options_.percentile)];
    // Require strictly-above so a flat distribution does not capture
    // every frame.
    if (wall_ns > cut_ns) {
      return static_cast<double>(cut_ns) / 1e6;
    }
  }
  return 0.0;
}

void SlowFrameCapture::OnFrame(const FrameStageRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.ring_frames == 0) {
    return;
  }
  const double trip_ms = TripThresholdMs(record.wall_ns);
  ++frames_seen_;
  if (ring_.size() < options_.ring_frames) {
    ring_.push_back(record);
  } else {
    sorted_walls_.erase(std::lower_bound(sorted_walls_.begin(),
                                         sorted_walls_.end(),
                                         ring_[ring_next_].wall_ns));
    ring_[ring_next_] = record;
    ring_next_ = (ring_next_ + 1) % options_.ring_frames;
  }
  sorted_walls_.insert(std::lower_bound(sorted_walls_.begin(),
                                        sorted_walls_.end(), record.wall_ns),
                       record.wall_ns);
  if (trip_ms <= 0.0) {
    return;
  }
  if (captures_.size() >= options_.max_captures) {
    ++captures_dropped_;
    return;
  }
  SlowFrame entry;
  entry.record = record;
  entry.trip_threshold_ns = static_cast<uint64_t>(trip_ms * 1e6 + 0.5);
  // Snapshot the flight events of this session within the frame's time
  // window (non-consuming: other consumers keep their drain position).
  // Only the rings' tails from the frame's start on are read.
  const uint64_t end_ns = record.start_ns + record.wall_ns;
  for (const FlightEvent& ev :
       GlobalFlightRecorder().EventsSince(record.start_ns)) {
    if (ev.session == record.session && ev.ts_ns <= end_ns) {
      entry.events.push_back(ev);
    }
  }
  captures_.push_back(std::move(entry));
}

uint64_t SlowFrameCapture::frames_seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_seen_;
}

size_t SlowFrameCapture::captures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return captures_.size();
}

FlightDump SlowFrameCapture::Snapshot() const {
  std::vector<SlowFrame> captures;
  uint64_t frames_seen = 0;
  uint64_t captures_dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    captures = captures_;
    frames_seen = frames_seen_;
    captures_dropped = captures_dropped_;
  }
  // Session ids and event codes index the global name table; the capture
  // names go after it, in this dump's table only.
  FlightDump dump;
  const size_t global_names = FlightNameCount();
  for (size_t i = 0; i < global_names; ++i) {
    dump.names.emplace_back(FlightNameForId(static_cast<uint16_t>(i)));
  }
  dump.names.insert(dump.names.end(), std::begin(kSlowFrameNames),
                    std::end(kSlowFrameNames));
  dump.names_dropped = FlightNamesDropped();
  const auto code = [global_names](SlowFrameName name) {
    return static_cast<uint16_t>(global_names + name);
  };
  std::vector<FlightEvent>& events = dump.events;
  // Appends `ev` as the `key` fact of `value`, unless the value is 0.
  const auto fact = [&](FlightEvent ev, SlowFrameName key, size_t stage,
                        uint64_t value) {
    ev.type = static_cast<uint8_t>(FlightEventType::kSlowFrameFact);
    ev.code = code(key);
    ev.stage = static_cast<uint8_t>(stage);
    ev.b = value;
    if (value != 0) {
      events.push_back(ev);
    }
  };

  for (const SlowFrame& cap : captures) {
    const FrameStageRecord& r = cap.record;
    FlightEvent ev;
    ev.ts_ns = r.start_ns;
    ev.type = static_cast<uint8_t>(FlightEventType::kSlowFrame);
    ev.code = code(kSlowFrameCode);
    ev.session = r.session;
    ev.a = r.frame;
    ev.b = r.wall_ns;
    events.push_back(ev);
    fact(ev, kFactQueueNs, 0, r.queue_ns);
    fact(ev, kFactIoPages, 0, r.io_pages);
    fact(ev, kFactTripThresholdNs, 0, cap.trip_threshold_ns);
    for (size_t s = 0; s < kNumTraceStages; ++s) {
      fact(ev, kFactStageNs, s, r.stages.ns[s]);
    }
    events.insert(events.end(), cap.events.begin(), cap.events.end());
  }
  // Timestamp order, stable so that events of one stamp keep their ring
  // order. A session plays its frames one after another, so its windows
  // do not overlap and no event is stored twice.
  std::stable_sort(events.begin(), events.end(), TsLess);
  // The capture-wide facts close the dump, stamped with its last event.
  FlightEvent last;
  last.ts_ns = events.empty() ? 0 : events.back().ts_ns;
  fact(last, kFactFramesSeen, 0, frames_seen);
  fact(last, kFactCapturesDropped, 0, captures_dropped);
  return dump;
}

FlightDump SlowFrameCapture::RunDump(FlightDump ring) const {
  FlightDump dump = Snapshot();
  // Snapshot's events are capture events (never in a ring) and window
  // events; the window events the ring still holds are dropped here.
  const auto first_window = std::stable_partition(
      dump.events.begin(), dump.events.end(), IsCaptureEvent);
  std::vector<FlightEvent> window(first_window, dump.events.end());
  dump.events.erase(first_window, dump.events.end());
  std::sort(window.begin(), window.end(), RecordLess);
  std::vector<bool> held(window.size(), false);
  for (const FlightEvent& e : ring.events) {
    auto [it, end] =
        std::equal_range(window.begin(), window.end(), e, RecordLess);
    for (; it != end; ++it) {
      const size_t i = static_cast<size_t>(it - window.begin());
      if (!held[i]) {
        held[i] = true;
        break;
      }
    }
  }
  for (size_t i = 0; i < window.size(); ++i) {
    if (!held[i]) {
      dump.events.push_back(window[i]);
    }
  }
  dump.events.insert(dump.events.end(), ring.events.begin(),
                     ring.events.end());
  std::stable_sort(dump.events.begin(), dump.events.end(), TsLess);
  dump.dropped = ring.dropped;
  return dump;
}

SlowFrameCapture& GlobalSlowFrameCapture() {
  // Leaked like the global flight recorder: frame loops in static
  // teardown must still be able to feed it.
  static SlowFrameCapture* capture = new SlowFrameCapture();
  return *capture;
}

}  // namespace hdov::telemetry
