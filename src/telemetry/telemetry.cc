#include "telemetry/telemetry.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <string_view>
#include <unordered_map>

namespace hdov::telemetry {

void Telemetry::RecordFrame(FrameRecord record) {
  ++frames_recorded_;
  record.index = frames_recorded_ - 1;
  record.context = context_;
  if (frames_.size() >= max_frames_) {
    ++frames_dropped_;
    return;
  }
  frames_.push_back(std::move(record));
}

void Telemetry::Reset() {
  metrics_.ResetValues();
  tracer_.Clear();
  frames_.clear();
  frames_recorded_ = 0;
  frames_dropped_ = 0;
  context_.clear();
}

namespace {

// The fields of a frame record that ride as kFrameFact events, keyed by
// name; AppendFrameRecords writes them and FrameRecordsFromDump reads the
// same list. The kFrameRecord event itself carries `system` and `index`.
struct FrameField {
  std::string_view key;
  std::string FrameRecord::*text = nullptr;
  uint64_t FrameRecord::*count = nullptr;
  double FrameRecord::*real = nullptr;
};
constexpr FrameField kFrameFields[] = {
    {.key = "kind", .text = &FrameRecord::kind},
    {.key = "context", .text = &FrameRecord::context},
    {.key = "cell", .count = &FrameRecord::cell},
    {.key = "frame_time_ms", .real = &FrameRecord::frame_time_ms},
    {.key = "query_time_ms", .real = &FrameRecord::query_time_ms},
    {.key = "io_pages", .count = &FrameRecord::io_pages},
    {.key = "light_io_pages", .count = &FrameRecord::light_io_pages},
    {.key = "index_bytes_read", .count = &FrameRecord::index_bytes_read},
    {.key = "store_bytes_read", .count = &FrameRecord::store_bytes_read},
    {.key = "model_bytes_read", .count = &FrameRecord::model_bytes_read},
    {.key = "nodes_visited", .count = &FrameRecord::nodes_visited},
    {.key = "vpages_fetched", .count = &FrameRecord::vpages_fetched},
    {.key = "hidden_pruned", .count = &FrameRecord::hidden_pruned},
    {.key = "internal_terminations",
     .count = &FrameRecord::internal_terminations},
    {.key = "cache_hit_rate", .real = &FrameRecord::cache_hit_rate},
    {.key = "rendered_triangles", .count = &FrameRecord::rendered_triangles},
    {.key = "models_fetched", .count = &FrameRecord::models_fetched},
    {.key = "resident_bytes", .count = &FrameRecord::resident_bytes},
    {.key = "fidelity", .real = &FrameRecord::fidelity},
};
constexpr size_t kNumFrameFields = std::size(kFrameFields);
// The keys of the run-wide facts.
constexpr std::string_view kFramesRecorded = "frames_recorded";
constexpr std::string_view kFramesDropped = "frames_dropped";

bool IsType(const FlightEvent& e, FlightEventType type) {
  return static_cast<FlightEventType>(e.type) == type;
}

}  // namespace

void AppendFrameRecords(const Telemetry& telemetry, FlightDump* dump) {
  std::vector<std::string>& names = dump->names;
  if (names.empty()) {
    names.emplace_back("?");  // Id 0, as in every dump: what code 0 reads.
  }
  std::unordered_map<std::string, uint64_t> ids;
  for (size_t i = names.size(); i-- > 0;) {
    ids[names[i]] = i;  // The first of equal names wins.
  }
  const auto intern = [&](std::string_view name) {
    const auto [it, added] = ids.try_emplace(std::string(name), names.size());
    if (added) {
      names.emplace_back(name);
    }
    return it->second;
  };
  const uint64_t ts = dump->events.empty() ? 0 : dump->events.back().ts_ns;
  const auto append = [&](FlightEventType type, uint64_t name, uint64_t a,
                          uint64_t b) {
    dump->events.push_back(FlightEvent{
        .ts_ns = ts,
        .type = static_cast<uint8_t>(type),
        .code = name <= UINT16_MAX ? static_cast<uint16_t>(name) : uint16_t{0},
        .a = a,
        .b = b});
  };
  uint64_t keys[kNumFrameFields];
  for (size_t i = 0; i < kNumFrameFields; ++i) {
    keys[i] = intern(kFrameFields[i].key);
  }
  const FrameRecord defaults;
  for (const FrameRecord& f : telemetry.frames()) {
    append(FlightEventType::kFrameRecord, intern(f.system), f.index, 0);
    for (size_t i = 0; i < kNumFrameFields; ++i) {
      const FrameField& field = kFrameFields[i];
      if (field.text != nullptr) {
        if (f.*field.text != defaults.*field.text) {
          append(FlightEventType::kFrameFact, keys[i], f.index,
                 intern(f.*field.text));
        }
        continue;
      }
      const auto value = [&field](const FrameRecord& r) {
        return field.count != nullptr ? r.*field.count
                                      : std::bit_cast<uint64_t>(r.*field.real);
      };
      if (value(f) != value(defaults)) {
        append(FlightEventType::kFrameFact, keys[i], f.index, value(f));
      }
    }
  }
  if (telemetry.frames_recorded() != 0) {
    append(FlightEventType::kFrameFact, intern(kFramesRecorded), 0,
           telemetry.frames_recorded());
  }
  if (telemetry.frames_dropped() != 0) {
    append(FlightEventType::kFrameFact, intern(kFramesDropped), 0,
           telemetry.frames_dropped());
  }
}

DumpFrames FrameRecordsFromDump(const FlightDump& dump) {
  DumpFrames out;
  // Records by index: a fact finds its frame by the index it repeats.
  std::unordered_map<uint64_t, size_t> rows;
  for (const FlightEvent& e : dump.events) {
    if (IsType(e, FlightEventType::kFrameRecord) &&
        rows.try_emplace(e.a, out.records.size()).second) {
      FrameRecord& r = out.records.emplace_back();
      r.index = e.a;
      if (e.code < dump.names.size()) {
        r.system = dump.names[e.code];
      }
    }
  }
  for (const FlightEvent& e : dump.events) {
    if (!IsType(e, FlightEventType::kFrameFact)) {
      continue;
    }
    const std::string_view key = dump.NameOf(e);
    if (key == kFramesRecorded) {
      out.recorded = e.b;
      continue;
    }
    if (key == kFramesDropped) {
      out.dropped = e.b;
      continue;
    }
    const FrameField* field =
        std::find_if(std::begin(kFrameFields), std::end(kFrameFields),
                     [key](const FrameField& f) { return f.key == key; });
    const auto row = rows.find(e.a);
    if (field == std::end(kFrameFields) || row == rows.end()) {
      continue;  // An unknown key, or an orphan: no kFrameRecord of its own.
    }
    FrameRecord& r = out.records[row->second];
    if (field->text != nullptr) {
      if (e.b < dump.names.size()) {
        r.*field->text = dump.names[e.b];
      }
    } else if (field->count != nullptr) {
      r.*field->count = e.b;
    } else {
      r.*field->real = std::bit_cast<double>(e.b);
    }
  }
  return out;
}

}  // namespace hdov::telemetry
