#include "telemetry/chrome_trace.h"

#include <algorithm>
#include <bit>
#include <set>
#include <string_view>
#include <unordered_map>

#include "telemetry/flight_rollup.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "telemetry/trace_context.h"

namespace hdov::telemetry {

namespace {

// The pid table: every exported track lives under one of these.
enum Pid : uint64_t {
  kFramePid = 1,
  kFlightPid = 3,
};

// Captured slow frames draw on one track per session, tid = this + the
// session id, clear of the 16-bit ring thread ids.
constexpr uint64_t kSessionTidBase = uint64_t{1} << 16;

std::string_view NameIn(const std::vector<std::string>& names, uint64_t id) {
  return id < names.size() ? std::string_view(names[id]) : "?";
}

// A "process_name" (tid < 0) or "thread_name" metadata event.
void WriteName(JsonWriter* w, Pid pid, int64_t tid, std::string_view name) {
  w->BeginObject();
  w->Key("name").String(tid < 0 ? "process_name" : "thread_name");
  w->Key("ph").String("M");
  w->Key("pid").Number(static_cast<uint64_t>(pid));
  if (tid >= 0) {
    w->Key("tid").Number(static_cast<uint64_t>(tid));
  }
  w->Key("args").BeginObject();
  w->Key("name").String(name);
  w->EndObject();
  w->EndObject();
}

// Opens one event with the fields every timed event carries; the caller
// adds "dur" / "args" and closes the object.
void OpenEvent(JsonWriter* w, std::string_view name, std::string_view cat,
               std::string_view ph, Pid pid, uint64_t tid, double ts_us) {
  w->BeginObject();
  w->Key("name").String(name);
  w->Key("cat").String(cat);
  w->Key("ph").String(ph);
  if (ph == "i") {
    w->Key("s").String("t");
  }
  w->Key("pid").Number(static_cast<uint64_t>(pid));
  w->Key("tid").Number(tid);
  w->Key("ts").Number(ts_us);
}

void WriteFrames(JsonWriter* w, const std::vector<FrameRecord>& frames) {
  // One track (tid) per emitting system in order of first appearance, ts
  // accumulating the simulated per-frame time.
  std::vector<std::string_view> systems;
  std::vector<double> cursor_us;
  for (const FrameRecord& f : frames) {
    const size_t t = static_cast<size_t>(
        std::find(systems.begin(), systems.end(), f.system) - systems.begin());
    const uint64_t tid = t + 1;
    if (t == systems.size()) {
      systems.push_back(f.system);
      cursor_us.push_back(0.0);
      WriteName(w, kFramePid, static_cast<int64_t>(tid), f.system);
    }
    const double dur_us =
        (f.frame_time_ms > 0.0 ? f.frame_time_ms : f.query_time_ms) * 1000.0;
    OpenEvent(w, f.kind, "frame", "X", kFramePid, tid, cursor_us[t]);
    w->Key("dur").Number(dur_us);
    w->Key("args").BeginObject();
    if (!f.context.empty()) {
      w->Key("context").String(f.context);
    }
    w->Key("cell").Number(f.cell);
    w->Key("io_pages").Number(f.io_pages);
    w->Key("nodes_visited").Number(f.nodes_visited);
    w->Key("vpages_fetched").Number(f.vpages_fetched);
    w->Key("rendered_triangles").Number(f.rendered_triangles);
    w->Key("models_fetched").Number(f.models_fetched);
    w->Key("cache_hit_rate").Number(f.cache_hit_rate);
    if (f.fidelity >= 0.0) {
      w->Key("fidelity").Number(f.fidelity);
    }
    w->EndObject();
    w->EndObject();
    // A sibling counter track so I/O pressure plots over the timeline.
    OpenEvent(w, f.system + " io_pages", "io", "C", kFramePid, tid,
              cursor_us[t]);
    w->Key("args").BeginObject();
    w->Key("pages").Number(f.io_pages);
    w->EndObject();
    w->EndObject();
    cursor_us[t] += dur_us;
  }
}

struct Phase {
  std::string_view ph;  // Empty: not exported.
  std::string_view cat;
};

// Indexed by FlightEventType. The types past the end are drawn otherwise:
// the capture types (kSlowFrame, kSlowFrameFact) as slices
// (WriteSlowFrames), the frame records under pid 1 (WriteFrames).
constexpr Phase kPhases[] = {
    {},               {"B", "span"},     {"E", "span"},  {"i", "io"},
    {"i", "io"},      {"i", "pool"},     {"i", "pool"},  {"B", "frame"},
    {"E", "frame"},   {"i", "prefetch"}, {"i", "prefetch"},
    {"i", "io"},      {},  // kSpanAttr: folded into its span's "B" args.
};

Phase PhaseOf(FlightEventType type) {
  const auto index = static_cast<size_t>(type);
  return index < std::size(kPhases) ? kPhases[index] : Phase{};
}

// One flight event on (pid, tid). Args: the type, the payload (runs,
// seeks and pages of an aggregate; the span id of a span boundary; raw a
// and b otherwise), the session / stage attribution, then `attrs`.
void WriteFlightEvent(JsonWriter* w, uint64_t tid,
                      const std::vector<std::string>& names,
                      const FlightEvent& ev,
                      const std::vector<const FlightEvent*>* attrs) {
  const auto type = static_cast<FlightEventType>(ev.type);
  const Phase phase = PhaseOf(type);
  OpenEvent(w, NameIn(names, ev.code), phase.cat, phase.ph, kFlightPid,
            tid, static_cast<double>(ev.ts_ns) / 1000.0);
  w->Key("args").BeginObject();
  w->Key("type").String(FlightEventTypeName(type));
  if (type == FlightEventType::kPageReadAgg) {
    w->Key("runs").Number(FlightReadRuns(ev));
    w->Key("seeks").Number(FlightReadSeeks(ev));
    w->Key("pages").Number(ev.b);
  } else if (phase.cat == "span") {
    w->Key("span").Number(ev.a);
  } else {
    w->Key("a").Number(ev.a);
    w->Key("b").Number(ev.b);
  }
  if (ev.session != 0) {
    w->Key("session").String(NameIn(names, ev.session));
  }
  if (ev.stage != 0) {
    w->Key("stage").String(TraceStageName(static_cast<TraceStage>(ev.stage)));
  }
  if (attrs != nullptr) {
    for (const FlightEvent* attr : *attrs) {
      w->Key(NameIn(names, attr->code));
      if ((attr->a & kSpanAttrString) != 0) {
        w->String(NameIn(names, attr->b));
      } else {
        w->Number(std::bit_cast<double>(attr->b));
      }
    }
  }
  w->EndObject();
  w->EndObject();
}

void WriteSlowFrames(JsonWriter* w, const std::vector<std::string>& names,
                     const SlowFrameRows& rows) {
  // One track per session, labeled with the session name.
  std::set<uint16_t> sessions;
  for (const SlowFrame& row : rows.captures) {
    sessions.insert(row.record.session);
  }
  for (uint16_t session : sessions) {
    WriteName(w, kFlightPid, static_cast<int64_t>(kSessionTidBase + session),
              NameIn(names, session));
  }
  const auto slice = [w](uint16_t session, std::string_view name,
                         std::string_view cat, uint64_t start_ns,
                         uint64_t dur_ns, const SlowFrame* row) {
    OpenEvent(w, name, cat, "X", kFlightPid, kSessionTidBase + session,
              static_cast<double>(start_ns) / 1000.0);
    w->Key("dur").Number(static_cast<double>(dur_ns) / 1000.0);
    if (row != nullptr) {
      w->Key("args").BeginObject();
      w->Key("frame").Number(row->record.frame);
      w->Key("queue_ms")
          .Number(static_cast<double>(row->record.queue_ns) / 1e6);
      w->Key("service_ms")
          .Number(static_cast<double>(row->record.wall_ns) / 1e6);
      w->Key("io_pages").Number(row->record.io_pages);
      w->Key("trip_threshold_ms")
          .Number(static_cast<double>(row->trip_threshold_ns) / 1e6);
      w->EndObject();
    }
    w->EndObject();
  };
  for (const SlowFrame& row : rows.captures) {
    const FrameStageRecord& r = row.record;
    if (r.queue_ns > 0 && r.start_ns >= r.queue_ns) {
      slice(r.session, "queue wait", "queue", r.start_ns - r.queue_ns,
            r.queue_ns, nullptr);
    }
    slice(r.session, "frame " + std::to_string(r.frame) + " (slow)",
          "frame", r.start_ns, r.wall_ns, &row);
    // Stage breakdown as child slices laid end to end in stage order: an
    // aggregate view, not the true interleaving of the stages.
    uint64_t cursor = r.start_ns;
    for (size_t s = 0; s < kNumTraceStages; ++s) {
      const uint64_t ns = r.stages.ns[s];
      if (ns == 0) {
        continue;
      }
      slice(r.session, TraceStageName(static_cast<TraceStage>(s)), "stage",
            cursor, ns, nullptr);
      cursor += ns;
    }
  }
}

void WriteFlightDump(JsonWriter* w, const FlightDump& dump) {
  // Attribute events (trace and run dumps) ride on their span's "B" event.
  std::unordered_map<uint64_t, std::vector<const FlightEvent*>> attrs;
  for (const FlightEvent& ev : dump.events) {
    if (static_cast<FlightEventType>(ev.type) == FlightEventType::kSpanAttr) {
      attrs[ev.a & ~kSpanAttrString].push_back(&ev);
    }
  }
  for (const FlightEvent& ev : dump.events) {
    const auto type = static_cast<FlightEventType>(ev.type);
    if (PhaseOf(type).ph.empty()) {
      continue;
    }
    const auto it = type == FlightEventType::kSpanBegin ? attrs.find(ev.a)
                                                         : attrs.end();
    WriteFlightEvent(w, ev.thread, dump.names, ev,
                     it == attrs.end() ? nullptr : &it->second);
  }
  WriteSlowFrames(w, dump.names, RollUpSlowFrames(dump));
}

}  // namespace

std::string ChromeTraceJson(const FlightDump& dump) {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  const std::vector<FrameRecord> frames = FrameRecordsFromDump(dump).records;
  if (!frames.empty()) {
    WriteName(&w, kFramePid, -1, "frames (simulated time)");
    WriteFrames(&w, frames);
  }
  WriteName(&w, kFlightPid, -1, "flight recorder (wall time)");
  WriteFlightDump(&w, dump);
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

}  // namespace hdov::telemetry
