#include "telemetry/telemetry.h"

#include "common/file_util.h"

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

namespace {

// A frame record's snapshot fields, in the order WriteFrame writes them;
// FrameRecordsFromJson reads the same list. An optional field is written
// only when set: a non-empty string, a non-negative number.
struct FrameField {
  std::string_view key;
  std::string FrameRecord::*text = nullptr;
  uint64_t FrameRecord::*count = nullptr;
  double FrameRecord::*real = nullptr;
  bool optional = false;
};
constexpr FrameField kFrameFields[] = {
    {.key = "system", .text = &FrameRecord::system},
    {.key = "kind", .text = &FrameRecord::kind},
    {.key = "index", .count = &FrameRecord::index},
    {.key = "context", .text = &FrameRecord::context, .optional = true},
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
    {.key = "fidelity", .real = &FrameRecord::fidelity, .optional = true},
};

void WriteFrame(const FrameRecord& f, JsonWriter* w) {
  w->BeginObject();
  for (const FrameField& field : kFrameFields) {
    if (field.text != nullptr) {
      if (!field.optional || !(f.*field.text).empty()) {
        w->Key(field.key).String(f.*field.text);
      }
    } else if (field.count != nullptr) {
      w->Key(field.key).Number(f.*field.count);
    } else if (!field.optional || f.*field.real >= 0.0) {
      w->Key(field.key).Number(f.*field.real);
    }
  }
  w->EndObject();
}

}  // namespace

std::string Telemetry::SnapshotJson() const {
  // The metrics and trace sections already serialize themselves; splice
  // their JSON in rather than re-walking the structures.
  std::string out;
  out.append("{\"version\":1,\"metrics\":");
  out.append(metrics_.Snapshot().ToJson());
  out.append(",\"frames_recorded\":");
  out.append(std::to_string(frames_recorded_));
  out.append(",\"frames_dropped\":");
  out.append(std::to_string(frames_dropped_));
  out.append(",\"frames\":");
  JsonWriter frames;
  frames.BeginArray();
  for (const FrameRecord& f : frames_) {
    WriteFrame(f, &frames);
  }
  frames.EndArray();
  out.append(frames.str());
  if (tracer_.num_spans() > 0) {
    out.append(",\"trace\":");
    out.append(DecodeSpanForest(tracer_.dump()).ToJson());
  }
  out.push_back('}');
  return out;
}

Status Telemetry::WriteJsonFile(const std::string& path) const {
  return WriteStringToFile(path, SnapshotJson() + '\n', "telemetry");
}

void Telemetry::Reset() {
  metrics_.ResetValues();
  tracer_.Clear();
  frames_.clear();
  frames_recorded_ = 0;
  frames_dropped_ = 0;
  context_.clear();
}

Result<std::vector<FrameRecord>> FrameRecordsFromJson(
    const JsonValue& snapshot) {
  const JsonValue* frames = snapshot.Find("frames");
  if (frames == nullptr || !frames->is_array()) {
    return Status::Corruption("telemetry snapshot: no frames array");
  }
  std::vector<FrameRecord> records;
  records.reserve(frames->items.size());
  for (const JsonValue& frame : frames->items) {
    FrameRecord& r = records.emplace_back();
    for (const FrameField& field : kFrameFields) {
      const JsonValue* v = frame.Find(field.key);
      if (v == nullptr) {
        continue;
      }
      if (field.text != nullptr) {
        if (v->is_string()) {
          r.*field.text = v->string;
        }
      } else if (!v->is_number()) {
        continue;
      } else if (field.real != nullptr) {
        r.*field.real = v->number;
      } else if (v->number >= 0.0 && v->number < 18446744073709551616.0) {
        r.*field.count = static_cast<uint64_t>(v->number);  // Below 2^64.
      } else {
        return Status::Corruption("telemetry snapshot: frame " +
                                  std::string(field.key) + " out of range");
      }
    }
  }
  return records;
}

}  // namespace hdov::telemetry
