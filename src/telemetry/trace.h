// TraceRecorder: opt-in span trees for the threshold search (one "search"
// root per query, a "node" span per visited HDoV node, and leaf spans for
// the prune / internal-LoD-terminate / descend decisions) and for the
// precompute phase. Spans carry numeric attributes (DoV, NVO, the Eq. 4
// operands, V-page fetch counts) and the odd string one (the store name).
//
// A trace is a flight dump. The recorder's only storage is one FlightDump
// with its own name table (span names, attribute keys and string values;
// never the process-wide flight table, so traces cannot exhaust its cap):
//
//   kSpanBegin  code = name, a = span index, b = the parent's link
//   kSpanEnd    code = name, a = span index
//   kSpanAttr   code = key,  a = span index (| kSpanAttrString), b = the
//               double's bits, or the name id of a string value
//
// Span indices count BeginSpan calls, so they are also the spans'
// positions in begin order. Every event is stamped like a ring event
// (FlightRecorder::Stamp on the global recorder: wall time, the thread's
// ring id, its session and stage), but only this dump holds it; a
// bench's --flight-out run dump merges it in (MergeTraceDump).
// DecodeSpanForest rebuilds the tree; the TraceSpan it returns is only
// that decoded view.
//
// Recording is opt-in twice over: instrumented code only touches the
// recorder when one is wired in, and a disabled recorder turns BeginSpan
// into a single branch. Owner-thread only, like the systems that record.

#ifndef HDOV_TELEMETRY_TRACE_H_
#define HDOV_TELEMETRY_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "telemetry/flight_recorder.h"

namespace hdov::telemetry {

// One span of a decoded trace.
struct TraceSpan {
  std::string name;
  int32_t parent = -1;  // Index of the parent span; -1 = root.
  bool closed = false;
  std::vector<std::pair<std::string, double>> num_attrs;
  std::vector<std::pair<std::string, std::string>> str_attrs;

  double NumAttrOr(std::string_view key, double fallback) const;
  const std::string* StrAttr(std::string_view key) const;
};

// A trace dump's spans in begin order: every parent precedes its
// children, and spans[i] is the span with index i.
struct SpanForest {
  std::vector<TraceSpan> spans;
};

// Rebuilds the span tree of one recorder's dump. Nesting comes from the
// begin/end order; a span with no end event decodes with closed = false.
SpanForest DecodeSpanForest(const FlightDump& dump);

class TraceRecorder {
 public:
  static constexpr int32_t kNoSpan = -1;

  TraceRecorder() { Clear(); }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Span-count cap: once reached, BeginSpan returns kNoSpan (every other
  // call treats kNoSpan as a no-op, so deep trees degrade gracefully —
  // recorded ancestors keep their attributes, excess descendants are
  // counted in spans_dropped). A multi-hour traced run stays at a
  // loadable chrome://tracing file size instead of growing unbounded.
  size_t max_spans() const { return max_spans_; }
  void set_max_spans(size_t n) { max_spans_ = n; }
  uint64_t spans_dropped() const { return spans_dropped_; }

  // Query sampling: with sample_every = N, SampleQuery() answers true for
  // one query in N (the first of each stride), so a serving workload can
  // keep span trees on at 1/N cost while every query still reaches the
  // flight recorder. Query entry points (VisualSystem::Query) consult this
  // before wiring the recorder into a search; 1 (the default) keeps the
  // historical trace-everything behavior.
  size_t sample_every() const { return sample_every_; }
  void set_sample_every(size_t n) { sample_every_ = n == 0 ? 1 : n; }
  bool SampleQuery();
  uint64_t queries_seen() const { return queries_seen_; }
  uint64_t queries_sampled() const { return queries_sampled_; }

  // Drops every recorded span (open ones included) and zeroes the counts.
  void Clear();

  // Opens a span under the currently open span (or as a root). Returns
  // kNoSpan when disabled; every other call accepts kNoSpan as a no-op,
  // so call sites need no disabled-checks of their own.
  int32_t BeginSpan(std::string_view name);
  // Closes `span` and any of its descendants still open, innermost first.
  void EndSpan(int32_t span);

  void AddAttr(int32_t span, std::string_view key, double value);
  void AddAttr(int32_t span, std::string_view key, std::string_view value);

  size_t num_spans() const { return num_spans_; }
  size_t open_depth() const;
  const FlightDump& dump() const { return dump_; }

 private:
  // The dump's id for `name`, added on first use; the "?" id 0 once the
  // 16-bit id space is full.
  uint16_t Intern(std::string_view name);
  void Append(FlightEventType type, uint16_t code, uint64_t a, uint64_t b);

  bool enabled_ = true;
  FlightDump dump_;
  size_t num_spans_ = 0;
  // Position + 1 in dump_.events of the innermost open span's begin event
  // (0 = none). Each begin event's b holds its parent's link the same
  // way, so the open spans form a chain through the dump.
  uint64_t open_ = 0;
  // ~1M spans keeps a fully traced bench run around Chrome's trace-viewer
  // comfort zone; raise it for short, deep traces.
  size_t max_spans_ = 1 << 20;
  uint64_t spans_dropped_ = 0;
  size_t sample_every_ = 1;
  uint64_t queries_seen_ = 0;
  uint64_t queries_sampled_ = 0;
};

// RAII span: opens on construction (when a recorder is given), closes on
// destruction. The searcher uses this so early error returns cannot leak
// open spans.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, std::string_view name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->BeginSpan(name)
                                : TraceRecorder::kNoSpan) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->EndSpan(id_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

  void Attr(std::string_view key, double value) {
    if (recorder_ != nullptr) {
      recorder_->AddAttr(id_, key, value);
    }
  }
  void Attr(std::string_view key, std::string_view value) {
    if (recorder_ != nullptr) {
      recorder_->AddAttr(id_, key, value);
    }
  }

 private:
  TraceRecorder* recorder_;
  int32_t id_;
};

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_TRACE_H_
