#include "telemetry/trace_context.h"

#include "telemetry/flight_recorder.h"

namespace hdov::telemetry {
namespace {

// Per-thread context plus the stage-accounting state it drives. One
// struct so a stage switch touches a single cache line.
struct ThreadTraceState {
  TraceContext ctx;
  StageBreakdown breakdown;
  uint64_t interval_start_ns = 0;
};

ThreadTraceState& State() {
  thread_local ThreadTraceState state;
  return state;
}

// Charges [interval_start_ns, now) to the stage that was active and
// opens a new interval at `now`.
void FlushInterval(ThreadTraceState& s) {
  const uint64_t now = FlightNowNs();
  if (s.interval_start_ns != 0 && now > s.interval_start_ns) {
    s.breakdown.ns[static_cast<size_t>(s.ctx.stage)] +=
        now - s.interval_start_ns;
  }
  s.interval_start_ns = now;
}

}  // namespace

std::string_view TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kNone:
      return "none";
    case TraceStage::kSearch:
      return "search";
    case TraceStage::kFetch:
      return "fetch";
    case TraceStage::kRender:
      return "render";
    case TraceStage::kPrefetch:
      return "prefetch";
  }
  return "invalid";
}

const TraceContext& CurrentTraceContext() { return State().ctx; }

void BeginStageAccounting() {
  ThreadTraceState& s = State();
  s.breakdown = StageBreakdown{};
  s.interval_start_ns = FlightNowNs();
}

StageBreakdown FinishStageAccounting() {
  ThreadTraceState& s = State();
  FlushInterval(s);
  return s.breakdown;
}

SessionTraceScope::SessionTraceScope(uint16_t session, uint64_t frame) {
  ThreadTraceState& s = State();
  prev_session_ = s.ctx.session;
  prev_frame_ = s.ctx.frame;
  s.ctx.session = session;
  s.ctx.frame = frame;
}

SessionTraceScope::~SessionTraceScope() {
  ThreadTraceState& s = State();
  s.ctx.session = prev_session_;
  s.ctx.frame = prev_frame_;
}

// Both stage switches first write out the page reads the closing stage
// interval aggregated (FlightRecorder::RecordRead), so each kPageReadAgg
// covers one interval of one stage.
StageTraceScope::StageTraceScope(TraceStage stage) {
  FlightRecorder::FlushThreadReads();
  ThreadTraceState& s = State();
  FlushInterval(s);
  prev_ = s.ctx.stage;
  s.ctx.stage = stage;
}

StageTraceScope::~StageTraceScope() {
  FlightRecorder::FlushThreadReads();
  ThreadTraceState& s = State();
  FlushInterval(s);
  s.ctx.stage = prev_;
}

}  // namespace hdov::telemetry
