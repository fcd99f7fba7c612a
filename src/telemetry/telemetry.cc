#include "telemetry/telemetry.h"

#include "common/file_util.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/json.h"

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

void WriteFrame(const FrameRecord& f, JsonWriter* w) {
  w->BeginObject();
  w->Key("system").String(f.system);
  w->Key("kind").String(f.kind);
  w->Key("index").Number(f.index);
  if (!f.context.empty()) {
    w->Key("context").String(f.context);
  }
  w->Key("cell").Number(f.cell);
  w->Key("frame_time_ms").Number(f.frame_time_ms);
  w->Key("query_time_ms").Number(f.query_time_ms);
  w->Key("io_pages").Number(f.io_pages);
  w->Key("light_io_pages").Number(f.light_io_pages);
  w->Key("index_bytes_read").Number(f.index_bytes_read);
  w->Key("store_bytes_read").Number(f.store_bytes_read);
  w->Key("model_bytes_read").Number(f.model_bytes_read);
  w->Key("nodes_visited").Number(f.nodes_visited);
  w->Key("vpages_fetched").Number(f.vpages_fetched);
  w->Key("hidden_pruned").Number(f.hidden_pruned);
  w->Key("internal_terminations").Number(f.internal_terminations);
  w->Key("cache_hit_rate").Number(f.cache_hit_rate);
  w->Key("rendered_triangles").Number(f.rendered_triangles);
  w->Key("models_fetched").Number(f.models_fetched);
  w->Key("resident_bytes").Number(f.resident_bytes);
  if (f.fidelity >= 0.0) {
    w->Key("fidelity").Number(f.fidelity);
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

std::string Telemetry::ChromeTraceJson() const {
  return telemetry::ChromeTraceJson({.frames = &frames_,
                                     .trace = &tracer_.dump()});
}

Status Telemetry::WriteChromeTrace(const std::string& path) const {
  return WriteStringToFile(path, ChromeTraceJson() + '\n', "telemetry");
}

void Telemetry::Reset() {
  metrics_.ResetValues();
  tracer_.Clear();
  frames_.clear();
  frames_recorded_ = 0;
  frames_dropped_ = 0;
  context_.clear();
}

}  // namespace hdov::telemetry
