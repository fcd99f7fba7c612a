// TraceContext: the ambient identity of the work a thread is doing right
// now — which session it serves, which frame of that session, and which
// pipeline stage (search / fetch / render / prefetch) is executing. The
// context is thread-local and set by RAII scopes at the layer that knows
// the answer (WalkthroughServer / PlaySession set session+frame, the
// searcher and VisualSystem phases set the stage); everything below —
// page devices, buffer pools, span hooks — stays signature-free: the
// flight recorder reads the context at Record() time and stamps every
// event with it. That is what makes a pool miss attributable to "session
// u03, frame 217, fetch stage" without threading arguments through five
// layers.
//
// Stage accounting: alongside the context, each thread keeps a per-frame
// wall-clock breakdown by stage. Every stage switch (scope enter/exit)
// closes the current interval and charges it to the stage that was
// active, so the per-stage numbers are exclusive (self) times that sum to
// the frame's wall time. BeginStageAccounting() zeroes the breakdown at
// frame start; FinishStageAccounting() flushes and returns it.
//
// Determinism: the context and the accounting touch only thread-locals
// and the flight clock (FlightNowNs) — never the SimClock, IoStats or a
// metrics registry — so enabling them cannot move a simulated counter
// (the same contract the flight recorder honors; see docs/telemetry.md).

#ifndef HDOV_TELEMETRY_TRACE_CONTEXT_H_
#define HDOV_TELEMETRY_TRACE_CONTEXT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hdov::telemetry {

// Pipeline stage of a walkthrough frame. Values are stamped into flight
// events (8 bits on the wire), so they are append-only.
enum class TraceStage : uint8_t {
  kNone = 0,      // Outside any stage scope (setup, scheduling, misc).
  kSearch = 1,    // HDoV-tree threshold search (Fig. 3 traversal).
  kFetch = 2,     // Model/V-page fetches of the frame's result set.
  kRender = 3,    // Render cost model + frame finalization.
  kPrefetch = 4,  // Speculative next-cell loading.
};
inline constexpr size_t kNumTraceStages = 5;

std::string_view TraceStageName(TraceStage stage);

// The ambient per-thread context. `session` is a flight-recorder interned
// name id (FlightInternName of the session name) so dumps resolve it to a
// string for free; 0 means unattributed.
struct TraceContext {
  uint16_t session = 0;
  uint64_t frame = 0;
  TraceStage stage = TraceStage::kNone;
};

// The calling thread's current context (reference stays valid for the
// thread's lifetime; scopes below mutate it).
const TraceContext& CurrentTraceContext();

// Per-frame wall-clock breakdown by stage, in nanoseconds of exclusive
// (self) time. ns[0] (kNone) absorbs time outside any stage scope.
struct StageBreakdown {
  uint64_t ns[kNumTraceStages] = {};

  uint64_t total_ns() const {
    uint64_t t = 0;
    for (uint64_t v : ns) {
      t += v;
    }
    return t;
  }
};

// Zeroes the calling thread's breakdown and opens a fresh interval.
// Call at frame start (the scheduler's dispatch point).
void BeginStageAccounting();

// Closes the open interval, charges it to the active stage, and returns
// the breakdown accumulated since BeginStageAccounting().
StageBreakdown FinishStageAccounting();

// RAII session identity: sets session+frame on construction, restores the
// previous values on destruction (scopes nest, e.g. a server worker
// switching between batched sessions).
class SessionTraceScope {
 public:
  SessionTraceScope(uint16_t session, uint64_t frame);
  ~SessionTraceScope();

  SessionTraceScope(const SessionTraceScope&) = delete;
  SessionTraceScope& operator=(const SessionTraceScope&) = delete;

 private:
  uint16_t prev_session_;
  uint64_t prev_frame_;
};

// RAII stage marker: switches the thread's stage on construction and back
// on destruction, charging the elapsed intervals to the stages that were
// active (see the stage-accounting contract above). Nesting is exclusive:
// a kSearch scope inside a kPrefetch scope charges the traversal to
// kSearch and only the surrounding work to kPrefetch.
class StageTraceScope {
 public:
  explicit StageTraceScope(TraceStage stage);
  ~StageTraceScope();

  StageTraceScope(const StageTraceScope&) = delete;
  StageTraceScope& operator=(const StageTraceScope&) = delete;

 private:
  TraceStage prev_;
};

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_TRACE_CONTEXT_H_
