// Telemetry: the unified observability context shared by the storage
// layer, the threshold search and the walkthrough systems. One Telemetry
// object owns
//
//   - a MetricsRegistry (counters / gauges / histograms plus read-through
//     views over IoStats and BufferPool counters),
//   - a TraceRecorder for opt-in per-query search span trees (its trace is
//     a FlightDump; DecodeSpanForest turns it back into a tree),
//   - the stream of per-frame FrameRecords emitted by instrumented
//     systems (one structured record per RenderFrame / Query).
//
// The metrics and the frame totals go into the bench report
// (telemetry/bench_report.h). The frame records ride in the benches'
// --flight-out run dump (AppendFrameRecords, one kFrameRecord event plus
// kFrameFact events each); FrameRecordsFromDump reads them back, which is
// how `hdov_inspect --flight` rolls them up and `--chrome-out` draws the
// frame timeline (telemetry/chrome_trace.h, pid 1).

#ifndef HDOV_TELEMETRY_TELEMETRY_H_
#define HDOV_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace hdov::telemetry {

// One structured record per frame (RenderFrame) or standalone visibility
// query. Fields a given system cannot attribute stay zero; `fidelity`
// stays negative unless a harness scores the frame afterwards.
struct FrameRecord {
  std::string system;       // Telemetry prefix of the emitting system.
  std::string kind = "frame";  // "frame" or "query".
  uint64_t index = 0;       // Assigned by Telemetry::RecordFrame.
  std::string context;      // Session label; stamped by the frame loop.
  uint64_t cell = 0;        // Viewing cell of the viewpoint.

  double frame_time_ms = 0.0;
  double query_time_ms = 0.0;  // Simulated I/O time of the frame/query.
  uint64_t io_pages = 0;
  uint64_t light_io_pages = 0;
  uint64_t index_bytes_read = 0;  // Tree / R-tree / cell-list device.
  uint64_t store_bytes_read = 0;  // V-page store device.
  uint64_t model_bytes_read = 0;  // Model data device.

  // Threshold-search decision counts (HDoV systems; zero elsewhere).
  uint64_t nodes_visited = 0;
  uint64_t vpages_fetched = 0;
  uint64_t hidden_pruned = 0;
  uint64_t internal_terminations = 0;

  double cache_hit_rate = 0.0;  // Buffer-pool hit rate this frame.
  uint64_t rendered_triangles = 0;
  uint64_t models_fetched = 0;
  uint64_t resident_bytes = 0;
  double fidelity = -1.0;  // Optional post-hoc score; < 0 = not computed.
};

class Telemetry {
 public:
  // Per-query span trees are far heavier than counters, so the owned
  // recorder starts disabled; opt in via tracer().set_enabled(true).
  Telemetry() { tracer_.set_enabled(false); }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  TraceRecorder& tracer() { return tracer_; }
  const TraceRecorder& tracer() const { return tracer_; }

  // Free-form label stamped into every subsequent FrameRecord (the frame
  // loop sets it to the session name for the session's duration).
  const std::string& context() const { return context_; }
  void set_context(std::string context) { context_ = std::move(context); }

  // Appends a record, stamping its index and the current context. Records
  // beyond `max_frames` are counted but dropped.
  void RecordFrame(FrameRecord record);

  const std::vector<FrameRecord>& frames() const { return frames_; }
  // Last kept record, for post-hoc annotation (e.g. fidelity scores);
  // nullptr when none.
  FrameRecord* last_frame() {
    return frames_.empty() ? nullptr : &frames_.back();
  }

  size_t max_frames() const { return max_frames_; }
  void set_max_frames(size_t n) { max_frames_ = n; }
  uint64_t frames_dropped() const { return frames_dropped_; }
  uint64_t frames_recorded() const { return frames_recorded_; }

  // Drops frame records and trace spans and zeroes owned metrics
  // (registered views keep reading their live sources).
  void Reset();

 private:
  MetricsRegistry metrics_;
  TraceRecorder tracer_;
  std::string context_;
  std::vector<FrameRecord> frames_;
  // Generous default: a full large-scale bench run stays well under this;
  // the cap only guards against unbounded growth in long-lived processes.
  size_t max_frames_ = 1 << 20;
  uint64_t frames_recorded_ = 0;
  uint64_t frames_dropped_ = 0;
};

// Appends `telemetry`'s frame records to `dump` (a run dump), stamped
// with its last event's time so that it stays in timestamp order: per
// record one kFrameRecord event, then one kFrameFact per field that
// differs from FrameRecord{}; then the frames_recorded and frames_dropped
// facts (each when non-zero). Text values and keys are names in the
// dump's own table, an existing name reused; a system past the 16-bit id
// space degrades to code 0.
void AppendFrameRecords(const Telemetry& telemetry, FlightDump* dump);

// The frame records of a dump, bit for bit as appended. A file may hold
// anything: a fact without its kFrameRecord, an unknown key and a name id
// out of range are skipped, and a second kFrameRecord with an index
// already seen adds no record.
struct DumpFrames {
  std::vector<FrameRecord> records;  // In dump order.
  uint64_t recorded = 0;             // Telemetry::frames_recorded().
  uint64_t dropped = 0;              // Telemetry::frames_dropped().
};
DumpFrames FrameRecordsFromDump(const FlightDump& dump);

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_TELEMETRY_H_
