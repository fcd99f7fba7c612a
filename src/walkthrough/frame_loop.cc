#include "walkthrough/frame_loop.h"

#include <algorithm>

#include "telemetry/slow_frame.h"

namespace hdov {

SessionPlayer::SessionPlayer(WalkthroughSystem* system,
                             const Session& session)
    : system_(system),
      session_(&session),
      flight_code_(telemetry::FlightInternName(session.name)) {
  frame_wall_ms_.reserve(session.frames.size());
  frame_queue_wait_ms_.reserve(session.frames.size());
}

Status SessionPlayer::PlayNext(uint64_t enqueue_ns, FrameResult* frame) {
  telemetry::FrameStageRecord record;
  record.start_ns = telemetry::FlightNowNs();  // Dispatch.
  Status status;
  {
    telemetry::SessionTraceScope trace(flight_code_, next_);
    telemetry::BeginStageAccounting();
    status = system_->RenderFrame(session_->frames[next_], frame);
    record.wall_ns = telemetry::FlightNowNs() - record.start_ns;
    record.stages = telemetry::FinishStageAccounting();
  }
  if (!status.ok()) {
    return status;
  }
  record.session = flight_code_;
  record.frame = next_;
  record.queue_ns = record.start_ns - std::min(enqueue_ns, record.start_ns);
  record.io_pages = frame->io_pages;
  telemetry::GlobalSlowFrameCapture().OnFrame(record);
  frame_wall_ms_.push_back(record.wall_ns / 1e6);
  frame_queue_wait_ms_.push_back(record.queue_ns / 1e6);
  for (size_t s = 0; s < telemetry::kNumTraceStages; ++s) {
    stage_totals_.ns[s] += record.stages.ns[s];
  }
  acc_.Add(*frame);
  ++next_;
  return Status::OK();
}

SessionSummary SessionPlayer::Summary() const {
  SessionSummary summary;
  summary.system_name = system_->name();
  summary.session_name = session_->name;
  acc_.FinishInto(&summary);
  return summary;
}

void PublishSessionGauges(const SessionSummary& summary,
                          telemetry::MetricsRegistry* registry,
                          const std::string& prefix) {
  const std::string base = prefix + ".session." + summary.session_name;
  registry->GetGauge(base + ".avg_frame_time_ms")
      ->Set(summary.avg_frame_time_ms);
  registry->GetGauge(base + ".var_frame_time")->Set(summary.var_frame_time);
  registry->GetGauge(base + ".avg_io_pages")->Set(summary.avg_io_pages);
  registry->GetGauge(base + ".cache_hit_rate")
      ->Set(summary.avg_cache_hit_rate);
  registry->GetGauge(base + ".max_resident_bytes")
      ->Set(static_cast<double>(summary.max_resident_bytes));
}

Result<SessionSummary> PlaySession(WalkthroughSystem* system,
                                   const Session& session,
                                   const PlayOptions& options) {
  if (session.frames.empty()) {
    return Status::InvalidArgument("play session: empty session");
  }
  system->ResetRuntime();

  // Stamp the session name into every frame record emitted below, and
  // restore whatever context the caller had set when the session ends.
  telemetry::Telemetry* telemetry = system->telemetry();
  const std::string saved_context =
      telemetry != nullptr ? telemetry->context() : std::string();
  if (telemetry != nullptr) {
    telemetry->set_context(session.name);
  }

  SessionPlayer player(system, session);
  std::vector<FrameResult> kept;
  if (options.keep_frames) {
    kept.reserve(session.frames.size());
  }
  Status status;
  while (status.ok() && !player.done()) {
    FrameResult frame;
    status = player.PlayNext(SessionPlayer::kNoQueue, &frame);
    if (status.ok() && options.keep_frames) {
      kept.push_back(frame);
    }
  }
  if (telemetry != nullptr) {
    telemetry->set_context(saved_context);
  }
  if (!status.ok()) {
    return status;
  }

  SessionSummary summary = player.Summary();
  summary.frames = std::move(kept);
  if (telemetry != nullptr) {
    PublishSessionGauges(summary, &telemetry->metrics(),
                         system->telemetry_prefix());
  }
  return summary;
}

}  // namespace hdov
