#include "telemetry/trace.h"

#include <bit>

#include "telemetry/json.h"
#include "telemetry/trace_context.h"

namespace hdov::telemetry {

double TraceSpan::NumAttrOr(std::string_view key, double fallback) const {
  for (const auto& [k, v] : num_attrs) {
    if (k == key) {
      return v;
    }
  }
  return fallback;
}

const std::string* TraceSpan::StrAttr(std::string_view key) const {
  for (const auto& [k, v] : str_attrs) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

SpanForest DecodeSpanForest(const FlightDump& dump) {
  const auto name = [&dump](uint64_t id) -> std::string_view {
    return id < dump.names.size() ? std::string_view(dump.names[id]) : "?";
  };
  SpanForest forest;
  std::vector<TraceSpan>& spans = forest.spans;
  std::vector<int32_t> open;
  for (const FlightEvent& ev : dump.events) {
    switch (static_cast<FlightEventType>(ev.type)) {
      case FlightEventType::kSpanBegin: {
        TraceSpan& span = spans.emplace_back();
        span.name = name(ev.code);
        span.parent = open.empty() ? -1 : open.back();
        open.push_back(static_cast<int32_t>(spans.size() - 1));
        break;
      }
      case FlightEventType::kSpanEnd:
        while (!open.empty()) {
          const int32_t top = open.back();
          open.pop_back();
          spans[static_cast<size_t>(top)].closed = true;
          if (static_cast<uint64_t>(top) == ev.a) {
            break;
          }
        }
        break;
      case FlightEventType::kSpanAttr: {
        const uint64_t index = ev.a & ~kSpanAttrString;
        if (index >= spans.size()) {
          break;
        }
        TraceSpan& span = spans[static_cast<size_t>(index)];
        if ((ev.a & kSpanAttrString) != 0) {
          span.str_attrs.emplace_back(name(ev.code), name(ev.b));
        } else {
          span.num_attrs.emplace_back(name(ev.code),
                                      std::bit_cast<double>(ev.b));
        }
        break;
      }
      default:
        break;
    }
  }
  return forest;
}

namespace {

void WriteSpan(const std::vector<TraceSpan>& spans,
               const std::vector<std::vector<size_t>>& children, size_t index,
               JsonWriter* w) {
  const TraceSpan& span = spans[index];
  w->BeginObject();
  w->Key("name").String(span.name);
  if (!span.num_attrs.empty() || !span.str_attrs.empty()) {
    w->Key("attrs").BeginObject();
    for (const auto& [key, value] : span.num_attrs) {
      w->Key(key).Number(value);
    }
    for (const auto& [key, value] : span.str_attrs) {
      w->Key(key).String(value);
    }
    w->EndObject();
  }
  if (!children[index].empty()) {
    w->Key("children").BeginArray();
    for (size_t child : children[index]) {
      WriteSpan(spans, children, child, w);
    }
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

std::string SpanForest::ToJson() const {
  // Children lists in one pass (every child follows its parent).
  std::vector<std::vector<size_t>> children(spans.size());
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      roots.push_back(i);
    } else {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  JsonWriter w;
  w.BeginArray();
  for (size_t root : roots) {
    WriteSpan(spans, children, root, &w);
  }
  w.EndArray();
  return w.TakeString();
}

void TraceRecorder::Clear() {
  dump_ = FlightDump{};
  dump_.names.emplace_back("?");
  num_spans_ = 0;
  open_ = 0;
  spans_dropped_ = 0;
  queries_seen_ = 0;
  queries_sampled_ = 0;
}

bool TraceRecorder::SampleQuery() {
  if (!enabled_) {
    return false;
  }
  const uint64_t n = queries_seen_++;
  if (sample_every_ <= 1 || n % sample_every_ == 0) {
    ++queries_sampled_;
    return true;
  }
  return false;
}

uint16_t TraceRecorder::Intern(std::string_view name) {
  std::vector<std::string>& names = dump_.names;
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) {
      return static_cast<uint16_t>(i);
    }
  }
  if (names.size() > UINT16_MAX) {
    ++dump_.names_dropped;
    return 0;
  }
  names.emplace_back(name);
  return static_cast<uint16_t>(names.size() - 1);
}

void TraceRecorder::Append(FlightEventType type, uint16_t code, uint64_t a,
                           uint64_t b) {
  FlightEvent ev;
  ev.ts_ns = FlightNowNs();
  ev.type = static_cast<uint8_t>(type);
  ev.stage = static_cast<uint8_t>(CurrentTraceContext().stage);
  ev.code = code;
  ev.a = a;
  ev.b = b;
  dump_.events.push_back(ev);
}

int32_t TraceRecorder::BeginSpan(std::string_view name) {
  if (!enabled_) {
    return kNoSpan;
  }
  if (num_spans_ >= max_spans_) {
    ++spans_dropped_;
    return kNoSpan;
  }
  const auto id = static_cast<int32_t>(num_spans_++);
  Append(FlightEventType::kSpanBegin, Intern(name), static_cast<uint64_t>(id),
         open_);
  open_ = dump_.events.size();
  FlightRecorder& flight = GlobalFlightRecorder();
  if (flight.enabled()) {
    flight.Record(FlightEventType::kSpanBegin, FlightInternName(name),
                  static_cast<uint64_t>(id), 0);
  }
  return id;
}

void TraceRecorder::EndSpan(int32_t span) {
  if (span == kNoSpan) {
    return;
  }
  // Close any children left open (defensive: RAII call sites make this a
  // no-op), then the span itself. A span that is not open closes them all.
  while (open_ != 0) {
    const FlightEvent begin = dump_.events[open_ - 1];
    Append(FlightEventType::kSpanEnd, begin.code, begin.a, 0);
    open_ = begin.b;
    if (begin.a == static_cast<uint64_t>(span)) {
      FlightRecorder& flight = GlobalFlightRecorder();
      if (flight.enabled()) {
        flight.Record(FlightEventType::kSpanEnd,
                      FlightInternName(dump_.names[begin.code]), begin.a, 0);
      }
      return;
    }
  }
}

void TraceRecorder::AddAttr(int32_t span, std::string_view key,
                            double value) {
  if (span == kNoSpan) {
    return;
  }
  Append(FlightEventType::kSpanAttr, Intern(key), static_cast<uint64_t>(span),
         std::bit_cast<uint64_t>(value));
}

void TraceRecorder::AddAttr(int32_t span, std::string_view key,
                            std::string_view value) {
  if (span == kNoSpan) {
    return;
  }
  const uint16_t code = Intern(key);
  const uint16_t value_id = Intern(value);
  Append(FlightEventType::kSpanAttr, code,
         static_cast<uint64_t>(span) | kSpanAttrString, value_id);
}

size_t TraceRecorder::open_depth() const {
  size_t depth = 0;
  for (uint64_t at = open_; at != 0; at = dump_.events[at - 1].b) {
    ++depth;
  }
  return depth;
}

}  // namespace hdov::telemetry
