#include "telemetry/slow_frame.h"

#include <algorithm>

#include "common/coding.h"
#include "common/file_util.h"

namespace hdov::telemetry {

SlowFrameCapture::SlowFrameCapture(const SlowFrameOptions& options)
    : options_(options) {}

void SlowFrameCapture::Configure(const SlowFrameOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  frames_seen_ = 0;
  captures_dropped_ = 0;
  ring_.clear();
  ring_next_ = 0;
  captures_.clear();
}

void SlowFrameCapture::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  frames_seen_ = 0;
  captures_dropped_ = 0;
  ring_.clear();
  ring_next_ = 0;
  captures_.clear();
}

bool SlowFrameCapture::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

void SlowFrameCapture::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = on;
}

double SlowFrameCapture::TripThresholdMs(uint64_t wall_ns) const {
  const double wall_ms = static_cast<double>(wall_ns) / 1e6;
  if (options_.threshold_ms > 0.0 && wall_ms >= options_.threshold_ms) {
    return options_.threshold_ms;
  }
  if (options_.percentile > 0.0 && frames_seen_ >= options_.warmup_frames &&
      !ring_.empty()) {
    // Trailing percentile of the ring's service times (the ring holds the
    // previous frames; the candidate itself is not yet inserted).
    std::vector<uint64_t> walls;
    walls.reserve(ring_.size());
    for (const FrameStageRecord& r : ring_) {
      walls.push_back(r.wall_ns);
    }
    const double q = std::min(1.0, std::max(0.0, options_.percentile));
    const size_t k = std::min(
        walls.size() - 1,
        static_cast<size_t>(q * static_cast<double>(walls.size() - 1) + 0.5));
    std::nth_element(walls.begin(), walls.begin() + static_cast<long>(k),
                     walls.end());
    const uint64_t cut_ns = walls[k];
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
  if (!enabled_ || options_.ring_frames == 0) {
    return;
  }
  const double trip_ms = TripThresholdMs(record.wall_ns);
  ++frames_seen_;
  if (ring_.size() < options_.ring_frames) {
    ring_.push_back(record);
  } else {
    ring_[ring_next_] = record;
    ring_next_ = (ring_next_ + 1) % options_.ring_frames;
  }
  if (trip_ms <= 0.0) {
    return;
  }
  if (captures_.size() >= options_.max_captures) {
    ++captures_dropped_;
    return;
  }
  SlowFrameEntry entry;
  entry.record = record;
  entry.trip_threshold_ms = trip_ms;
  // Snapshot the flight events of this session within the frame's time
  // window (non-consuming: other consumers keep their drain position).
  const uint64_t end_ns = record.start_ns + record.wall_ns;
  FlightDump flight = GlobalFlightRecorder().Drain(/*consume=*/false);
  for (const FlightEvent& ev : flight.events) {
    if (ev.session == record.session && ev.ts_ns >= record.start_ns &&
        ev.ts_ns <= end_ns) {
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

SlowDump SlowFrameCapture::Snapshot() const {
  SlowDump dump;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dump.captures = captures_;
    dump.frames_seen = frames_seen_;
    dump.captures_dropped = captures_dropped_;
  }
  // Session ids and event codes share the flight name table; snapshot it
  // so the dump is self-describing.
  const size_t names = FlightNameCount();
  dump.names.reserve(names);
  for (size_t i = 0; i < names; ++i) {
    dump.names.emplace_back(FlightNameForId(static_cast<uint16_t>(i)));
  }
  return dump;
}

Status SlowFrameCapture::WriteDump(const std::string& path) const {
  return WriteStringToFile(path, EncodeSlowDump(Snapshot()), "slow dump");
}

Result<SlowDump> SlowFrameCapture::ReadDump(const std::string& path) {
  HDOV_ASSIGN_OR_RETURN(const std::string data,
                        ReadFileToString(path, "slow dump"));
  return DecodeSlowDump(data);
}

SlowFrameCapture& GlobalSlowFrameCapture() {
  // Leaked like the global flight recorder: frame loops in static
  // teardown must still be able to feed it.
  static SlowFrameCapture* capture = new SlowFrameCapture();
  return *capture;
}

// ---------------------------------------------------------------------
// Dump container: "HDOVSLOW" magic, version, name table, captures.
// Thresholds are stored as nanoseconds so the container stays all-integer.

namespace {
constexpr char kSlowMagic[8] = {'H', 'D', 'O', 'V', 'S', 'L', 'O', 'W'};
constexpr uint32_t kSlowVersion = 1;
}  // namespace

std::string EncodeSlowDump(const SlowDump& dump) {
  std::string out;
  out.append(kSlowMagic, sizeof(kSlowMagic));
  EncodeFixed32(&out, kSlowVersion);
  EncodeFixed32(&out, static_cast<uint32_t>(dump.names.size()));
  EncodeFixed64(&out, dump.frames_seen);
  EncodeFixed64(&out, dump.captures_dropped);
  EncodeFixed32(&out, static_cast<uint32_t>(dump.captures.size()));
  for (const std::string& name : dump.names) {
    EncodeFixed32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
  }
  for (const SlowFrameEntry& cap : dump.captures) {
    const FrameStageRecord& r = cap.record;
    EncodeFixed32(&out, r.session);
    EncodeFixed64(&out, r.frame);
    EncodeFixed64(&out, r.start_ns);
    EncodeFixed64(&out, r.queue_ns);
    EncodeFixed64(&out, r.wall_ns);
    EncodeFixed64(&out, r.io_pages);
    EncodeFixed64(&out,
                  static_cast<uint64_t>(cap.trip_threshold_ms * 1e6 + 0.5));
    EncodeFixed32(&out, static_cast<uint32_t>(kNumTraceStages));
    for (uint64_t ns : r.stages.ns) {
      EncodeFixed64(&out, ns);
    }
    EncodeFixed64(&out, cap.events.size());
    for (const FlightEvent& ev : cap.events) {
      EncodeFlightEvent(&out, ev);
    }
  }
  return out;
}

Result<SlowDump> DecodeSlowDump(std::string_view data) {
  if (data.size() < sizeof(kSlowMagic) ||
      data.compare(0, sizeof(kSlowMagic),
                   std::string_view(kSlowMagic, sizeof(kSlowMagic))) != 0) {
    return Status::Corruption("slow dump: bad magic");
  }
  const std::string_view body = data.substr(sizeof(kSlowMagic));
  Decoder dec(body);
  uint32_t version = 0;
  uint32_t name_count = 0;
  uint32_t capture_count = 0;
  SlowDump dump;
  HDOV_RETURN_IF_ERROR(dec.DecodeFixed32(&version));
  if (version != kSlowVersion) {
    return Status::Corruption("slow dump: unsupported version " +
                              std::to_string(version));
  }
  HDOV_RETURN_IF_ERROR(dec.DecodeFixed32(&name_count));
  HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&dump.frames_seen));
  HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&dump.captures_dropped));
  HDOV_RETURN_IF_ERROR(dec.DecodeFixed32(&capture_count));
  if (name_count > kMaxFlightNames) {
    return Status::Corruption("slow dump: name table too large");
  }
  dump.names.reserve(name_count);
  for (uint32_t i = 0; i < name_count; ++i) {
    uint32_t len = 0;
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed32(&len));
    if (len > dec.remaining()) {
      return Status::Corruption("slow dump: truncated name");
    }
    dump.names.emplace_back(body.substr(dec.position(), len));
    HDOV_RETURN_IF_ERROR(dec.Skip(len));
  }
  // Checked before the reserve: a capture is at least 64 bytes (no
  // stages, no events), so a larger count cannot fit in what is left.
  if (capture_count > dec.remaining() / 64) {
    return Status::Corruption("slow dump: truncated capture section");
  }
  dump.captures.reserve(capture_count);
  for (uint32_t i = 0; i < capture_count; ++i) {
    SlowFrameEntry cap;
    FrameStageRecord& r = cap.record;
    uint32_t session = 0;
    uint64_t threshold_ns = 0;
    uint32_t num_stages = 0;
    uint64_t event_count = 0;
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed32(&session));
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&r.frame));
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&r.start_ns));
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&r.queue_ns));
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&r.wall_ns));
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&r.io_pages));
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&threshold_ns));
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed32(&num_stages));
    r.session = static_cast<uint16_t>(session);
    cap.trip_threshold_ms = static_cast<double>(threshold_ns) / 1e6;
    if (num_stages > 64) {
      return Status::Corruption("slow dump: implausible stage count");
    }
    for (uint32_t s = 0; s < num_stages; ++s) {
      uint64_t ns = 0;
      HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&ns));
      if (s < kNumTraceStages) {
        r.stages.ns[s] = ns;  // Future extra stages are skipped.
      }
    }
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&event_count));
    if (event_count > dec.remaining() / 32) {
      return Status::Corruption("slow dump: truncated event section");
    }
    cap.events.reserve(static_cast<size_t>(event_count));
    for (uint64_t e = 0; e < event_count; ++e) {
      HDOV_RETURN_IF_ERROR(DecodeFlightEvent(&dec, &cap.events.emplace_back()));
    }
    dump.captures.push_back(std::move(cap));
  }
  if (dec.remaining() != 0) {
    return Status::Corruption("slow dump: trailing bytes");
  }
  return dump;
}

}  // namespace hdov::telemetry
