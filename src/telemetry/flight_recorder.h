// FlightRecorder: the always-on, bounded-memory event log. Instrumented
// code appends fixed-size 32-byte binary events — page fetches,
// buffer-pool hits/misses, prefetch events, frame boundaries — into
// lock-free per-thread ring buffers. Old events are overwritten, never flushed, so
// a long-lived process pays a constant memory cost and a ~30 ns per-event
// hot-path cost: one clock read (FlightNowNs, a scaled TSC read where the
// kernel trusts the TSC), one TraceContext read and one cached ring
// lookup, each quantified by the BM_Flight* micro benchmarks. The last N events per thread are always
// available for a post-hoc "what just happened" drain, exactly like an
// aircraft flight recorder.
//
// Concurrency model: each thread writes only its own ring (registered on
// first use); every slot is a quartet of relaxed atomics published by a
// release store of the ring head, so a concurrent Drain reads a
// consistent prefix and discards the (rare) region a writer may have
// lapped mid-copy. No lock is ever taken on the record path.
//
// Determinism: events carry real wall timestamps (FlightNowNs) but the
// recorder never touches the SimClock, IoStats, or any registry metric —
// enabling or disabling it cannot move a single simulated counter, which
// is what lets it stay on under the zero-drift CI perf gate.
//
// Attribution: every event is stamped with the recording thread's ambient
// TraceContext (telemetry/trace_context.h) — the session it serves and
// the pipeline stage it is in — so a drained dump can answer "which
// session's fetch stage caused this pool miss" without any hook changing
// its signature. Dumps are versioned ("HDOVFREC" v4 adds the slow-frame
// capture events, v3 the page-read aggregate; v3, v2 and v1 dumps still
// decode, v1 with session/stage zero).
//
// Page reads inside a stage are aggregated (RecordRead): the ring holds
// one kPageReadAgg per (stage, session, device) with its run, seek and
// page totals, not one event per run with its page ids. That is the
// trade that keeps a query to a few events: per-model detail now comes
// from sampled trace spans (--trace-sample) plus the ModelStore extents,
// and slow-frame captures hold the aggregates of the frame's stages.
// Reads outside any stage, prefetch-diverted reads and every other event
// type stay one event each.
//
// The event is also the only span format and the only capture format: an
// opt-in TraceRecorder (telemetry/trace.h) keeps its span tree as a
// FlightDump of its own, stamped like ring events (Stamp), a
// SlowFrameCapture (telemetry/slow_frame.h) snapshots its captured frames
// as one, and the benches' --flight-out run dump is a drained ring merged
// with both (SlowFrameCapture::RunDump, MergeTraceDump). One exporter
// (telemetry/chrome_trace.h) turns any dump into Chrome trace events.

#ifndef HDOV_TELEMETRY_FLIGHT_RECORDER_H_
#define HDOV_TELEMETRY_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "telemetry/trace_context.h"

namespace hdov::telemetry {

enum class FlightEventType : uint8_t {
  kNone = 0,
  kSpanBegin = 1,   // a = span id within its recorder.
  kSpanEnd = 2,     // a = span id.
  kPageRead = 3,    // a = first page id, b = page count.
  kPageWrite = 4,   // a = page id, b = 1.
  kPoolHit = 5,     // a = page id.
  kPoolMiss = 6,    // a = page id, b = miss-fill wall time in ns.
  kFrameBegin = 7,  // a = frame index.
  kFrameEnd = 8,    // a = frame index, b = io_pages (when attributed).
  // Prefetch overlap accounting (src/prefetch/, docs/prefetch.md). Issue
  // events are ordinary kPageRead events recorded with stage == kPrefetch;
  // these two cover the other ends of a prefetched page's life.
  kPrefetchUsed = 9,    // a = first page id, b = pages consumed unbilled.
  kPrefetchCancel = 10, // a = resident pages invalidated, b = planned cell.
  // The billed reads of one device within one stage scope (RecordRead):
  // a = runs (low 32 bits) | seeks (high 32 bits), b = pages.
  kPageReadAgg = 11,
  // One span attribute, in TraceRecorder dumps and the run dumps they
  // merge into (never in the ring): code = key, a = span id
  // (| kSpanAttrString), b = the double's bits or the name id of a string
  // value.
  kSpanAttr = 12,
  // One captured slow frame, in SlowFrameCapture snapshots and run dumps
  // only (never in the ring): ts = dispatch, session, a = frame index,
  // b = service ns.
  kSlowFrame = 13,
  // One fact of a captured frame: code = key (a name in the dump's own
  // table), ts / session / a = its kSlowFrame's, stage = the stage of a
  // "stage_ns" fact, b = the value. The "frames_seen" and
  // "captures_dropped" facts describe the whole capture (session 0).
  kSlowFrameFact = 14,
};

std::string_view FlightEventTypeName(FlightEventType type);

// Set in a kSpanAttr event's `a` when `b` is a string value's name id.
inline constexpr uint64_t kSpanAttrString = uint64_t{1} << 63;

// One recorded event. `code` is an interned-name id (FlightInternName)
// identifying the emitting device / pool / system / span; `thread` is the
// recorder-assigned ring id of the emitting thread; `session` is the
// interned name id of the session the thread was serving (0 when
// unattributed) and `stage` the TraceStage it was in, both captured from
// the thread's TraceContext at Record() time.
struct FlightEvent {
  uint64_t ts_ns = 0;   // FlightNowNs(): ns since the process flight epoch.
  uint8_t type = 0;     // FlightEventType.
  uint8_t stage = 0;    // TraceStage.
  uint16_t code = 0;
  uint16_t thread = 0;
  uint16_t session = 0;  // Interned session name id; 0 = unattributed.
  uint64_t a = 0;
  uint64_t b = 0;
};
static_assert(sizeof(FlightEvent) == 32, "events are fixed 32-byte records");

// Billed pages an event stands for: b of kPageRead and kPageReadAgg, 0
// for every other type.
inline uint64_t FlightReadPages(const FlightEvent& e) {
  const auto type = static_cast<FlightEventType>(e.type);
  return type == FlightEventType::kPageRead ||
                 type == FlightEventType::kPageReadAgg
             ? e.b
             : 0;
}
// Runs an event stands for: 1 for kPageRead, the packed count for
// kPageReadAgg, 0 otherwise.
inline uint64_t FlightReadRuns(const FlightEvent& e) {
  switch (static_cast<FlightEventType>(e.type)) {
    case FlightEventType::kPageRead:
      return 1;
    case FlightEventType::kPageReadAgg:
      return e.a & 0xffffffffu;
    default:
      return 0;
  }
}
// Seeks of a kPageReadAgg (0 otherwise: a per-run kPageRead does not
// carry its seek).
inline uint64_t FlightReadSeeks(const FlightEvent& e) {
  return static_cast<FlightEventType>(e.type) == FlightEventType::kPageReadAgg
             ? e.a >> 32
             : 0;
}

// Process-wide name interning for event codes. The table is append-only
// and capped (kMaxFlightNames); id 0 is the reserved "?" returned when the
// table is full, so interning can never fail, only degrade. Interning
// takes a lock only on first insertion of a name; hot paths cache the id.
inline constexpr size_t kMaxFlightNames = 256;
uint16_t FlightInternName(std::string_view name);
std::string_view FlightNameForId(uint16_t id);  // "?" when out of range.
size_t FlightNameCount();
// Process-wide count of intern calls refused because the table was full
// (each such call degraded to the "?" code). Deliberately not a registry
// metric — the recorder never touches the registry — but surfaced in
// dumps, `hdov_inspect --flight` rollups, and bench telemetry output.
uint64_t FlightNamesDropped();

// A drained recorder image: the merged events plus the name table they
// index into. This is also the in-memory form of a dump file, and the
// storage of a TraceRecorder (one thread's events, with names of its own).
struct FlightDump {
  std::vector<std::string> names;   // Indexed by FlightEvent::code.
  std::vector<FlightEvent> events;  // Merged, timestamp order.
  // Events lost before this drain: ring overwrites of undrained events
  // and the slots earlier consuming drains gave up (see Drain).
  uint64_t dropped = 0;
  uint64_t names_dropped = 0;       // Intern calls degraded to "?" (v2+).

  std::string_view NameOf(const FlightEvent& e) const {
    return e.code < names.size() ? std::string_view(names[e.code]) : "?";
  }
};

class FlightRecorder {
 public:
  // `events_per_thread` is rounded up to a power of two; each slot is 32
  // bytes, so the default keeps a thread's ring at 1 MiB.
  explicit FlightRecorder(size_t events_per_thread = 1 << 15);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  size_t events_per_thread() const { return capacity_; }

  // Appends one event to the calling thread's ring (registering the
  // thread on first use). No-op when disabled. Lock-free after the first
  // call per thread.
  void Record(FlightEventType type, uint16_t code, uint64_t a, uint64_t b);

  // The event Record would append, stamped but not recorded: now on the
  // flight clock, the calling thread's ring id (registering the thread on
  // first use) and its ambient session and stage. A TraceRecorder stamps
  // its spans this way, so they land on the thread track they ran on.
  FlightEvent Stamp(FlightEventType type, uint16_t code, uint64_t a,
                    uint64_t b);

  // Like Record, but stamps `stage` (a TraceStage value) instead of the
  // thread's ambient stage; session attribution is still ambient. For
  // hooks that know an event's pipeline meaning regardless of what scope
  // they run under — e.g. a diverted prefetch read is a kPrefetch issue
  // even while the speculative searcher's own kSearch scope is active.
  void RecordWithStage(FlightEventType type, uint16_t code, uint64_t a,
                       uint64_t b, uint8_t stage);

  // One billed read of `pages` pages from `first` on device `code`;
  // `seek` says whether it was charged a seek. Outside any stage it is a
  // kPageRead event (a = first, b = pages). Inside a StageTraceScope it
  // writes no event and reads no clock: it adds into the calling thread's
  // pending totals for (stage, session, code), which FlushThreadReads
  // turns into one kPageReadAgg per device. A recorder must outlive the
  // stage scopes that record reads into it.
  void RecordRead(uint16_t code, uint64_t first, uint64_t pages, bool seek);

  // Writes the calling thread's pending read totals as kPageReadAgg
  // events into the recorder they were read into. StageTraceScope calls
  // it when a scope opens or closes, so each aggregate covers one stage
  // interval; Drain calls it for the draining thread.
  static void FlushThreadReads();

  // Threads that ever recorded into this recorder.
  size_t num_threads() const;
  // Total events ever recorded / lost before being consumed (overwritten,
  // or given up by a consuming drain), so after a consuming drain every
  // recorded event is either drained or dropped, exactly once.
  uint64_t events_recorded() const;
  uint64_t events_dropped() const;

  // Snapshot of every ring's surviving events, merged across threads in
  // timestamp order, after flushing the calling thread's pending reads
  // (other threads' pending reads appear when their stage scopes close).
  // With `consume`, drained events are marked consumed: the next Drain
  // starts after them and they can no longer count as dropped. A lapped
  // ring gives up its oldest slot (a writer could be filling it) and any
  // slot a writer laps mid-copy; a consuming drain counts those dropped.
  // Safe to call while other threads record (events published mid-drain
  // may or may not be included).
  FlightDump Drain(bool consume = false);

  // The events of Drain(false) stamped at or after `from_ns`, in the same
  // order, without the name table. Each ring is read back from its head
  // only to its first event stamped before `from_ns`: a ring has one
  // writer and the flight clock is monotone on each thread, so every
  // older event is older still.
  std::vector<FlightEvent> EventsSince(uint64_t from_ns);

  // Binary dump round trip ("HDOVFREC" container, see docs/telemetry.md).
  Status WriteDump(const std::string& path, bool consume = false);
  static Result<FlightDump> ReadDump(const std::string& path);

 private:
  struct Slot {
    std::atomic<uint64_t> w[4];
  };
  struct Buffer {
    explicit Buffer(size_t capacity, uint32_t id)
        : ring(new Slot[capacity]()), id(id) {}
    std::unique_ptr<Slot[]> ring;
    std::atomic<uint64_t> head{0};      // Next monotonic write index.
    std::atomic<uint64_t> consumed{0};  // Below this: drained or counted.
    std::atomic<uint64_t> lost{0};      // Overwritten before consumption.
    uint32_t id = 0;
  };

  Buffer* LocalBuffer();
  // The record path behind Record / RecordWithStage: one ring write with
  // the caller's already-read attribution.
  void Append(FlightEventType type, uint16_t code, uint64_t a, uint64_t b,
              uint8_t stage, uint16_t session);
  // How Append and Stamp stamp an event: at `ts_ns` (FlightNowNs), on
  // `buf`'s ring, with the given attribution.
  static FlightEvent StampEvent(uint64_t ts_ns, const Buffer& buf,
                                FlightEventType type, uint16_t code,
                                uint64_t a, uint64_t b, uint8_t stage,
                                uint16_t session) {
    return FlightEvent{.ts_ns = ts_ns,
                       .type = static_cast<uint8_t>(type),
                       .stage = stage,
                       .code = code,
                       .thread = static_cast<uint16_t>(buf.id & 0xffff),
                       .session = session,
                       .a = a,
                       .b = b};
  }
  // Appends `buf`'s events in [from, head) stamped at or after `min_ns`
  // to `out`, in ring order, less any a writer lapped mid-copy or could be
  // filling; returns how many of [from, head) it discarded so. Requires
  // mu_.
  uint64_t CopyRing(const Buffer& buf, uint64_t from, uint64_t head,
                    uint64_t min_ns, std::vector<FlightEvent>* out) const;

  const size_t capacity_;  // Power of two.
  const uint64_t serial_;  // Process-unique; keys the thread-local cache.
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;  // Guards buffers_ growth; never on record path.
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// The process-wide recorder every built-in hook records into: device
// reads/writes, pool hits/misses, prefetch events and frame boundaries
// all land here. Enabled from the start (that is the point); disable it via
// GlobalFlightRecorder().set_enabled(false) to measure its absence.
FlightRecorder& GlobalFlightRecorder();

// `run` (a run dump: SlowFrameCapture::RunDump of a drain) with a
// TraceRecorder's dump merged in, in timestamp order. The trace's names
// go after `run`'s, and its span codes, attribute keys and string
// attribute values are rebased onto them ("?" past the 16-bit id space);
// span indices are unchanged, so a run dump holds one trace.
FlightDump MergeTraceDump(FlightDump run, const FlightDump& trace);

// Serializes / parses the dump container (also used by tools/hdov_inspect
// on files produced by --flight-out).
std::string EncodeFlightDump(const FlightDump& dump);
Result<FlightDump> DecodeFlightDump(std::string_view data);

// Nanoseconds since the process flight epoch (the first use of the clock):
// monotone on each thread, and one timeline for every caller — event
// stamps, server start/wall times, stage accounting, pool-miss fill times.
// On x86-64, when the kernel's clocksource is "tsc" (it keeps that only
// for a synchronized, invariant TSC), it is a raw TSC read scaled by a
// ticks-to-ns ratio calibrated once against steady_clock with a ~2 ms spin
// on first use; everywhere else it is steady_clock. The choice is made
// once per process.
uint64_t FlightNowNs();

// Inline here, not in flight_recorder.cc, so that Append's clock read
// stays the only FlightNowNs call there and keeps being inlined into the
// record path.
inline FlightEvent FlightRecorder::Stamp(FlightEventType type, uint16_t code,
                                         uint64_t a, uint64_t b) {
  const TraceContext& ctx = CurrentTraceContext();
  return StampEvent(FlightNowNs(), *LocalBuffer(), type, code, a, b,
                    static_cast<uint8_t>(ctx.stage), ctx.session);
}

namespace internal {
// FlightNowNs's steady_clock fallback: `t` on the flight timeline (0 for
// instants before the epoch). Exposed so tests can hold the fallback to
// the same contract on hosts that take the TSC path.
uint64_t FlightNsFromSteady(std::chrono::steady_clock::time_point t);
}  // namespace internal

// RAII frame boundary: kFrameBegin on construction, kFrameEnd on
// destruction, recorded into the global recorder. `code` identifies the
// emitting system (FlightInternName of its name).
class FlightFrameScope {
 public:
  FlightFrameScope(uint16_t code, uint64_t frame_index)
      : code_(code), index_(frame_index) {
    GlobalFlightRecorder().Record(FlightEventType::kFrameBegin, code_,
                                  index_, 0);
  }
  ~FlightFrameScope() {
    GlobalFlightRecorder().Record(FlightEventType::kFrameEnd, code_, index_,
                                  io_pages_);
  }

  FlightFrameScope(const FlightFrameScope&) = delete;
  FlightFrameScope& operator=(const FlightFrameScope&) = delete;

  // Attributes the frame's billed pages to the kFrameEnd event.
  void set_io_pages(uint64_t pages) { io_pages_ = pages; }

 private:
  uint16_t code_;
  uint64_t index_;
  uint64_t io_pages_ = 0;
};

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_FLIGHT_RECORDER_H_
