#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <iterator>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "common/coding.h"
#include "common/file_util.h"
#include "telemetry/trace_context.h"

namespace hdov::telemetry {

std::string_view FlightEventTypeName(FlightEventType type) {
  static constexpr std::string_view kNames[] = {
      "none",          "span_begin",      "span_end",      "page_read",
      "page_write",    "pool_hit",        "pool_miss",     "frame_begin",
      "frame_end",     "prefetch_used",   "prefetch_cancel",
      "page_read_agg", "span_attr",     "slow_frame",    "slow_frame_fact",
      "frame_record",  "frame_fact",
  };
  const auto index = static_cast<size_t>(type);
  return index < std::size(kNames) ? kNames[index] : "unknown";
}

namespace {

// The flight clock, fixed on first use. `use_tsc` is chosen once, so every
// caller stays on one timeline for the life of the process.
struct FlightClock {
  std::chrono::steady_clock::time_point steady_epoch;
  bool use_tsc = false;
  uint64_t tsc_epoch = 0;
  uint64_t ns_per_tick_q32 = 0;  // ns per TSC tick, 32.32 fixed point.
};

#if defined(__x86_64__)
// The kernel switches its clocksource away from "tsc" when it finds the
// counter unsynchronized across CPUs or not invariant, so "tsc" here means
// a raw TSC read is a valid system-wide monotonic clock. Read with stdio,
// not an ifstream: this runs on the first flight event, and an iostream's
// first use touches enough of the C++ library to show in a small
// process's resident set.
bool KernelClocksourceIsTsc() {
  std::FILE* file = std::fopen(
      "/sys/devices/system/clocksource/clocksource0/current_clocksource",
      "r");
  if (file == nullptr) {
    return false;
  }
  char source[32] = {};
  const bool read = std::fgets(source, sizeof(source), file) != nullptr;
  std::fclose(file);
  return read && std::string_view(source) == "tsc\n";
}

struct ClockPair {
  std::chrono::steady_clock::time_point steady;
  uint64_t tsc;
};

// One TSC read bracketed by two steady_clock reads, keeping the narrowest
// bracket of a few tries: a preemption between the reads cannot skew the
// pairing by more than the bracket we keep.
ClockPair ReadClockPair() {
  ClockPair best{};
  std::chrono::steady_clock::duration best_width =
      std::chrono::steady_clock::duration::max();
  for (int i = 0; i < 5; ++i) {
    const auto before = std::chrono::steady_clock::now();
    const uint64_t tsc = __rdtsc();
    const auto after = std::chrono::steady_clock::now();
    if (after - before < best_width) {
      best_width = after - before;
      best = ClockPair{before + (after - before) / 2, tsc};
    }
  }
  return best;
}
#endif

// Calibrates the TSC against steady_clock over a ~2 ms spin. Falls back
// to steady_clock off x86-64, when the kernel does not trust the TSC, or
// when the TSC did not advance over the spin.
FlightClock CalibrateFlightClock() {
  FlightClock clock;
  clock.steady_epoch = std::chrono::steady_clock::now();
#if defined(__x86_64__)
  if (!KernelClocksourceIsTsc()) {
    return clock;
  }
  const ClockPair start = ReadClockPair();
  while (std::chrono::steady_clock::now() - start.steady <
         std::chrono::milliseconds(2)) {
  }
  const ClockPair end = ReadClockPair();
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end.steady -
                                                           start.steady)
          .count());
  if (end.tsc <= start.tsc) {
    return clock;  // A TSC that did not advance: do not trust it.
  }
  const double ns_per_tick = ns / static_cast<double>(end.tsc - start.tsc);
  clock.steady_epoch = start.steady;
  clock.tsc_epoch = start.tsc;
  clock.ns_per_tick_q32 = static_cast<uint64_t>(ns_per_tick * 4294967296.0);
  clock.use_tsc = true;
#endif
  return clock;
}

const FlightClock& GetFlightClock() {
  static const FlightClock clock = CalibrateFlightClock();
  return clock;
}

uint64_t SteadyToFlightNs(const FlightClock& clock,
                          std::chrono::steady_clock::time_point t) {
  if (t <= clock.steady_epoch) {
    return 0;
  }
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t - clock.steady_epoch)
          .count());
}

uint64_t TscToFlightNs(const FlightClock& clock, uint64_t tsc) {
  if (tsc <= clock.tsc_epoch) {
    return 0;
  }
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(tsc - clock.tsc_epoch) *
       clock.ns_per_tick_q32) >>
      32);
}

}  // namespace

namespace internal {

uint64_t FlightNsFromSteady(std::chrono::steady_clock::time_point t) {
  return SteadyToFlightNs(GetFlightClock(), t);
}

}  // namespace internal

namespace {
// The calling thread's TSC-timeline floor (see FlightNowNs). A thread that
// takes over a dead thread's ring raises it to the ring's last stamp.
thread_local uint64_t t_flight_floor_ns = 0;
}  // namespace

uint64_t FlightNowNs() {
  const FlightClock& clock = GetFlightClock();
#if defined(__x86_64__)
  if (clock.use_tsc) {
    // Synchronized TSCs may still differ by a few ticks between cores, and
    // the read is not ordered against earlier instructions; the per-thread
    // floor keeps the timeline monotone on each thread regardless.
    const uint64_t ns = TscToFlightNs(clock, __rdtsc());
    if (ns > t_flight_floor_ns) {
      t_flight_floor_ns = ns;
    }
    return t_flight_floor_ns;
  }
#endif
  return SteadyToFlightNs(clock, std::chrono::steady_clock::now());
}

namespace {

// Strings are written before the release store of `count`, so lock-free
// readers only ever see fully constructed entries.
struct NameTable {
  std::mutex mu;                 // Insertions only.
  std::array<std::string, kMaxFlightNames> names;
  std::atomic<size_t> count{1};  // names[0] is the reserved "?".
  // Intern calls refused because the table was full. Counted per call,
  // not per distinct name (distinct overflow names are unbounded): hot
  // paths cache their id, so a steady rate here means live code is
  // repeatedly degrading to "?".
  std::atomic<uint64_t> dropped{0};
  // push_back, not `= "?"`: g++ 12 at -O3 warns a false -Wrestrict on
  // the assignment.
  NameTable() { names[0].push_back('?'); }
};

NameTable& GlobalNames() {
  // Leaked: hooks in static destructors may still intern at exit.
  static NameTable* table = new NameTable();
  return *table;
}

uint64_t RoundUpPow2(uint64_t v) {
  uint64_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

uint16_t FlightInternName(std::string_view name) {
  NameTable& table = GlobalNames();
  const size_t published = table.count.load(std::memory_order_acquire);
  for (size_t i = 0; i < published; ++i) {
    if (table.names[i] == name) {
      return static_cast<uint16_t>(i);
    }
  }
  std::lock_guard<std::mutex> lock(table.mu);
  const size_t count = table.count.load(std::memory_order_relaxed);
  for (size_t i = published; i < count; ++i) {
    if (table.names[i] == name) {
      return static_cast<uint16_t>(i);
    }
  }
  if (count >= kMaxFlightNames) {
    // Table full: degrade to the "?" code, never fail — but loudly.
    table.dropped.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  table.names[count].assign(name);
  table.count.store(count + 1, std::memory_order_release);
  return static_cast<uint16_t>(count);
}

std::string_view FlightNameForId(uint16_t id) {
  NameTable& table = GlobalNames();
  if (id >= table.count.load(std::memory_order_acquire)) {
    return "?";
  }
  return table.names[id];
}

size_t FlightNameCount() {
  return GlobalNames().count.load(std::memory_order_acquire);
}

uint64_t FlightNamesDropped() {
  return GlobalNames().dropped.load(std::memory_order_relaxed);
}

namespace {

std::atomic<uint64_t> g_recorder_serial{1};

// The calling thread's in-stage read totals, one slot per device code,
// all for one (recorder, stage, session). Constant-initialized, so the
// record path reaches it without a thread-local construction guard.
struct PendingReads {
  static constexpr uint32_t kSlots = 4;
  struct Slot {
    uint16_t code;
    uint32_t runs;
    uint32_t seeks;
    uint64_t pages;
  };
  FlightRecorder* recorder;
  uint8_t stage;
  uint16_t session;
  uint32_t count;  // Slots in use.
  Slot slots[kSlots];
};

thread_local PendingReads t_pending{};

// The live recorders by serial. A thread-exit hook looks its recorders up
// here, so it never touches one that is gone, even if another now lives
// at the same address. Leaked, like the name table: threads may exit
// during static teardown.
struct RecorderRegistry {
  std::mutex mu;  // Taken before any recorder's mu_, never after.
  std::vector<std::pair<uint64_t, FlightRecorder*>> live;
};

RecorderRegistry& Recorders() {
  static RecorderRegistry* registry = new RecorderRegistry();
  return *registry;
}

}  // namespace

// Every ring the calling thread writes. Its destructor runs at thread exit
// and hands each ring whose recorder still lives back to that recorder.
struct ThreadRings {
  // Keyed by the recorder's process-unique serial, never by address, so
  // a recorder reusing a destroyed one's storage cannot match stale
  // entries.
  struct Entry {
    uint64_t serial;
    FlightRecorder::Buffer* buffer;
  };
  std::vector<Entry> rings;
  // Set once the destructor ran: a flight event recorded later in the
  // thread's teardown gets a ring of its own that is never handed back.
  static thread_local bool gone;

  ~ThreadRings();
};

thread_local bool ThreadRings::gone = false;

namespace {

// The ring this thread used last. Trivially initialized, so the hit path
// is one compare with no thread-local construction guard; serials start
// at 1, so the zero entry never matches.
thread_local ThreadRings::Entry t_last_ring{0, nullptr};
thread_local ThreadRings t_rings;

}  // namespace

ThreadRings::~ThreadRings() {
  gone = true;
  t_last_ring = Entry{0, nullptr};
  RecorderRegistry& registry = Recorders();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const Entry& ring : rings) {
    for (const auto& [serial, recorder] : registry.live) {
      if (serial == ring.serial) {
        std::lock_guard<std::mutex> ring_lock(recorder->mu_);
        recorder->free_rings_.push_back(ring.buffer);
        break;
      }
    }
  }
}

FlightRecorder::FlightRecorder(size_t events_per_thread)
    : capacity_(static_cast<size_t>(
          RoundUpPow2(std::max<uint64_t>(2, events_per_thread)))),
      serial_(g_recorder_serial.fetch_add(1, std::memory_order_relaxed)) {
  RecorderRegistry& registry = Recorders();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.live.emplace_back(serial_, this);
}

FlightRecorder::~FlightRecorder() {
  RecorderRegistry& registry = Recorders();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::erase_if(registry.live,
                [this](const auto& entry) { return entry.first == serial_; });
}

FlightRecorder::Buffer* FlightRecorder::AttachRing() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_rings_.empty()) {
    buffers_.push_back(std::make_unique<Buffer>(
        capacity_, static_cast<uint32_t>(buffers_.size())));
    return buffers_.back().get();
  }
  Buffer* buf = free_rings_.back();
  free_rings_.pop_back();
  // Keep the ring's stamps monotone across its writers (EventsSince reads
  // a ring back only to its first older stamp): this thread's clock
  // starts no earlier than the ring's last event.
  const uint64_t head = buf->head.load(std::memory_order_relaxed);
  if (head > 0) {
    t_flight_floor_ns = std::max(
        t_flight_floor_ns, buf->ring[(head - 1) & (capacity_ - 1)].w[0].load(
                               std::memory_order_relaxed));
  }
  return buf;
}

FlightRecorder::Buffer* FlightRecorder::LocalBuffer() {
  if (t_last_ring.serial == serial_) {
    return t_last_ring.buffer;
  }
  if (ThreadRings::gone) {
    t_last_ring = ThreadRings::Entry{serial_, AttachRing()};
    return t_last_ring.buffer;
  }
  for (const ThreadRings::Entry& ring : t_rings.rings) {
    if (ring.serial == serial_) {
      t_last_ring = ring;
      return ring.buffer;
    }
  }
  t_last_ring = ThreadRings::Entry{serial_, AttachRing()};
  t_rings.rings.push_back(t_last_ring);
  return t_last_ring.buffer;
}

void FlightRecorder::Record(FlightEventType type, uint16_t code, uint64_t a,
                            uint64_t b) {
  if (!enabled()) {
    return;
  }
  // Stamp the thread's ambient session + stage so the event is
  // attributable without widening any hook signature.
  const TraceContext& ctx = CurrentTraceContext();
  Append(type, code, a, b, static_cast<uint8_t>(ctx.stage), ctx.session);
}

void FlightRecorder::RecordWithStage(FlightEventType type, uint16_t code,
                                     uint64_t a, uint64_t b, uint8_t stage) {
  if (!enabled()) {
    return;
  }
  Append(type, code, a, b, stage, CurrentTraceContext().session);
}

void FlightRecorder::RecordRead(uint16_t code, uint64_t first,
                                uint64_t pages, bool seek) {
  if (!enabled()) {
    return;
  }
  const TraceContext& ctx = CurrentTraceContext();
  if (ctx.stage == TraceStage::kNone) {
    Append(FlightEventType::kPageRead, code, first, pages, 0, ctx.session);
    return;
  }
  PendingReads& p = t_pending;
  const auto stage = static_cast<uint8_t>(ctx.stage);
  if (p.recorder != this || p.stage != stage || p.session != ctx.session) {
    FlushThreadReads();
    p.recorder = this;
    p.stage = stage;
    p.session = ctx.session;
  }
  PendingReads::Slot* slot = nullptr;
  for (uint32_t i = 0; i < p.count; ++i) {
    if (p.slots[i].code == code) {
      slot = &p.slots[i];
      break;
    }
  }
  if (slot == nullptr || slot->runs == UINT32_MAX) {
    // A fifth device, or a run count about to overflow its 32 bits:
    // write out what is pending and start over.
    if (slot != nullptr || p.count == PendingReads::kSlots) {
      FlushThreadReads();
    }
    slot = &p.slots[p.count++];
    *slot = PendingReads::Slot{code, 0, 0, 0};
  }
  ++slot->runs;
  slot->seeks += seek ? 1 : 0;
  slot->pages += pages;
}

void FlightRecorder::FlushThreadReads() {
  PendingReads& p = t_pending;
  for (uint32_t i = 0; i < p.count; ++i) {
    const PendingReads::Slot& slot = p.slots[i];
    p.recorder->Append(FlightEventType::kPageReadAgg, slot.code,
                       static_cast<uint64_t>(slot.runs) |
                           (static_cast<uint64_t>(slot.seeks) << 32),
                       slot.pages, p.stage, p.session);
  }
  p.count = 0;
}

namespace {

// An event's packed second word, in the ring and in the dump container:
// type | stage<<8 | code<<16 | session<<32 | thread<<48.
uint64_t PackMeta(const FlightEvent& ev) {
  return static_cast<uint64_t>(ev.type) |
         (static_cast<uint64_t>(ev.stage) << 8) |
         (static_cast<uint64_t>(ev.code) << 16) |
         (static_cast<uint64_t>(ev.session) << 32) |
         (static_cast<uint64_t>(ev.thread) << 48);
}

void UnpackMeta(uint64_t meta, FlightEvent* ev) {
  ev->type = static_cast<uint8_t>(meta & 0xff);
  ev->stage = static_cast<uint8_t>((meta >> 8) & 0xff);
  ev->code = static_cast<uint16_t>((meta >> 16) & 0xffff);
  ev->session = static_cast<uint16_t>((meta >> 32) & 0xffff);
  ev->thread = static_cast<uint16_t>(meta >> 48);
}

// Drain order: timestamp, then ring id (so one ring's events of one stamp
// keep their ring order under a stable sort).
bool DrainLess(const FlightEvent& x, const FlightEvent& y) {
  return x.ts_ns != y.ts_ns ? x.ts_ns < y.ts_ns : x.thread < y.thread;
}

}  // namespace

void FlightRecorder::Append(FlightEventType type, uint16_t code, uint64_t a,
                            uint64_t b, uint8_t stage, uint16_t session) {
  Buffer* buf = LocalBuffer();
  const FlightEvent ev =
      StampEvent(FlightNowNs(), *buf, type, code, a, b, stage, session);
  const uint64_t idx = buf->head.load(std::memory_order_relaxed);
  Slot& slot = buf->ring[idx & (capacity_ - 1)];
  slot.w[0].store(ev.ts_ns, std::memory_order_relaxed);
  slot.w[1].store(PackMeta(ev), std::memory_order_relaxed);
  slot.w[2].store(ev.a, std::memory_order_relaxed);
  slot.w[3].store(ev.b, std::memory_order_relaxed);
  // Publishes the slot: Drain acquires `head` before touching the ring.
  buf->head.store(idx + 1, std::memory_order_release);
}

size_t FlightRecorder::num_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buffers_.size();
}

uint64_t FlightRecorder::events_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& buf : buffers_) {
    total += buf->head.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t FlightRecorder::events_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& buf : buffers_) {
    const uint64_t head = buf->head.load(std::memory_order_acquire);
    const uint64_t ring_begin = head > capacity_ ? head - capacity_ : 0;
    const uint64_t consumed = buf->consumed.load(std::memory_order_relaxed);
    total += buf->lost.load(std::memory_order_relaxed);
    if (ring_begin > consumed) {
      total += ring_begin - consumed;
    }
  }
  return total;
}

uint64_t FlightRecorder::CopyRing(const Buffer& buf, uint64_t from,
                                  uint64_t head, uint64_t min_ns,
                                  std::vector<FlightEvent>* out) const {
  // Step back from the head to the first event stamped before min_ns. A
  // slot a writer laps meanwhile only reads newer, so it cannot stop the
  // walk early, and it is discarded below.
  uint64_t begin = min_ns == 0 ? from : head;
  while (begin > from &&
         buf.ring[(begin - 1) & (capacity_ - 1)].w[0].load(
             std::memory_order_relaxed) >= min_ns) {
    --begin;
  }
  const size_t first = out->size();
  for (uint64_t idx = begin; idx < head; ++idx) {
    const Slot& slot = buf.ring[idx & (capacity_ - 1)];
    FlightEvent& ev = out->emplace_back();
    ev.ts_ns = slot.w[0].load(std::memory_order_relaxed);
    UnpackMeta(slot.w[1].load(std::memory_order_relaxed), &ev);
    ev.a = slot.w[2].load(std::memory_order_relaxed);
    ev.b = slot.w[3].load(std::memory_order_relaxed);
  }
  // A writer may have lapped part of the copied range mid-copy; re-read
  // the head and discard every index it could have overwritten (plus the
  // slot the writer may currently be filling, hence the +1).
  const uint64_t head_after = buf.head.load(std::memory_order_acquire);
  const uint64_t valid_from =
      head_after > capacity_ ? head_after - capacity_ + 1 : 0;
  if (valid_from <= begin) {
    return 0;
  }
  const uint64_t lapped = std::min(valid_from, head) - begin;
  out->erase(out->begin() + static_cast<ptrdiff_t>(first),
             out->begin() + static_cast<ptrdiff_t>(first + lapped));
  return lapped;
}

FlightDump FlightRecorder::Drain(bool consume) {
  FlushThreadReads();
  FlightDump dump;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    const uint64_t head = buf->head.load(std::memory_order_acquire);
    const uint64_t ring_begin = head > capacity_ ? head - capacity_ : 0;
    uint64_t consumed = buf->consumed.load(std::memory_order_relaxed);
    if (ring_begin > consumed) {
      // Events in [consumed, ring_begin) were overwritten before anyone
      // drained them: account them lost exactly once.
      buf->lost.fetch_add(ring_begin - consumed, std::memory_order_relaxed);
      buf->consumed.store(ring_begin, std::memory_order_relaxed);
      consumed = ring_begin;
    }
    const uint64_t discarded =
        CopyRing(*buf, consumed, head, 0, &dump.events);
    dump.dropped += buf->lost.load(std::memory_order_relaxed);
    if (consume) {
      // Everything before `head` is consumed now, so the slots the copy
      // gave up (lapped, or the one a writer could be filling) are lost:
      // events_dropped() and the next dump count them.
      buf->lost.fetch_add(discarded, std::memory_order_relaxed);
      buf->consumed.store(head, std::memory_order_relaxed);
    }
  }
  std::stable_sort(dump.events.begin(), dump.events.end(), DrainLess);
  // Snapshot the global name table so the dump is self-describing.
  const size_t names = FlightNameCount();
  dump.names.reserve(names);
  for (size_t i = 0; i < names; ++i) {
    dump.names.emplace_back(FlightNameForId(static_cast<uint16_t>(i)));
  }
  dump.names_dropped = FlightNamesDropped();
  return dump;
}

std::vector<FlightEvent> FlightRecorder::EventsSince(uint64_t from_ns) {
  FlushThreadReads();
  std::vector<FlightEvent> events;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    const uint64_t head = buf->head.load(std::memory_order_acquire);
    const uint64_t ring_begin = head > capacity_ ? head - capacity_ : 0;
    CopyRing(*buf,
             std::max(ring_begin,
                      buf->consumed.load(std::memory_order_relaxed)),
             head, from_ns, &events);
  }
  std::stable_sort(events.begin(), events.end(), DrainLess);
  return events;
}

FlightDump MergeTraceDump(FlightDump run, const FlightDump& trace) {
  const size_t base = run.names.size();
  const auto rebase = [base](uint64_t id) {
    return base + id <= UINT16_MAX ? static_cast<uint16_t>(base + id)
                                   : uint16_t{0};
  };
  run.names.insert(run.names.end(), trace.names.begin(), trace.names.end());
  run.names_dropped += trace.names_dropped;
  std::vector<FlightEvent> spans = trace.events;
  for (FlightEvent& ev : spans) {
    ev.code = rebase(ev.code);
    if (static_cast<FlightEventType>(ev.type) == FlightEventType::kSpanAttr &&
        (ev.a & kSpanAttrString) != 0) {
      ev.b = rebase(ev.b);
    }
  }
  // Both are in timestamp order: a trace records on its owner thread,
  // whose flight clock is monotone.
  std::vector<FlightEvent> merged;
  merged.reserve(run.events.size() + spans.size());
  std::merge(run.events.begin(), run.events.end(), spans.begin(),
             spans.end(), std::back_inserter(merged),
             [](const FlightEvent& x, const FlightEvent& y) {
               return x.ts_ns < y.ts_ns;
             });
  run.events = std::move(merged);
  return run;
}

// ---------------------------------------------------------------------
// Dump container: "HDOVFREC" magic, version, name table, packed events.
// v1: header {names, events, dropped}; event meta packs
//     type(16) | code(16) | thread(32).
// v2: header gains names_dropped; event meta packs
//     type(8) | stage(8) | code(16) | session(16) | thread(16).
// v3: the v2 layout plus kPageReadAgg events, whose pages a v2 reader
//     would not count.
// v4: the v3 layout plus the slow-frame capture events (kSlowFrame,
//     kSlowFrameFact), whose keys may take a capture dump's name table
//     past the 256 process-wide names.
// v5: the v4 layout plus the frame-record events (kFrameRecord,
//     kFrameFact) of a run dump.
// The reader accepts all five; v1 events decode with session/stage zero
// (old dumps predate attribution).

namespace {
constexpr char kFlightMagic[8] = {'H', 'D', 'O', 'V', 'F', 'R', 'E', 'C'};
constexpr uint32_t kFlightVersion = 5;

// One event's 32-byte container form (v2 and later): {u64 ts_ns,
// u64 PackMeta, u64 a, u64 b}.
void EncodeFlightEvent(std::string* out, const FlightEvent& ev) {
  EncodeFixed64(out, ev.ts_ns);
  EncodeFixed64(out, PackMeta(ev));
  EncodeFixed64(out, ev.a);
  EncodeFixed64(out, ev.b);
}

Status DecodeFlightEvent(Decoder* dec, FlightEvent* ev) {
  uint64_t meta = 0;
  HDOV_RETURN_IF_ERROR(dec->DecodeFixed64(&ev->ts_ns));
  HDOV_RETURN_IF_ERROR(dec->DecodeFixed64(&meta));
  HDOV_RETURN_IF_ERROR(dec->DecodeFixed64(&ev->a));
  HDOV_RETURN_IF_ERROR(dec->DecodeFixed64(&ev->b));
  UnpackMeta(meta, ev);
  return Status::OK();
}

}  // namespace

std::string EncodeFlightDump(const FlightDump& dump) {
  std::string out;
  out.append(kFlightMagic, sizeof(kFlightMagic));
  EncodeFixed32(&out, kFlightVersion);
  EncodeFixed32(&out, static_cast<uint32_t>(dump.names.size()));
  EncodeFixed64(&out, dump.events.size());
  EncodeFixed64(&out, dump.dropped);
  EncodeFixed64(&out, dump.names_dropped);
  for (const std::string& name : dump.names) {
    EncodeFixed32(&out, static_cast<uint32_t>(name.size()));
    out.append(name);
  }
  for (const FlightEvent& ev : dump.events) {
    EncodeFlightEvent(&out, ev);
  }
  return out;
}

Result<FlightDump> DecodeFlightDump(std::string_view data) {
  if (data.size() < sizeof(kFlightMagic) ||
      data.compare(0, sizeof(kFlightMagic),
                   std::string_view(kFlightMagic, sizeof(kFlightMagic))) !=
          0) {
    return Status::Corruption("flight dump: bad magic");
  }
  const std::string_view body = data.substr(sizeof(kFlightMagic));
  Decoder dec(body);
  uint32_t version = 0;
  uint32_t name_count = 0;
  uint64_t event_count = 0;
  FlightDump dump;
  HDOV_RETURN_IF_ERROR(dec.DecodeFixed32(&version));
  if (version < 1 || version > kFlightVersion) {
    return Status::Corruption("flight dump: unsupported version " +
                              std::to_string(version));
  }
  HDOV_RETURN_IF_ERROR(dec.DecodeFixed32(&name_count));
  HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&event_count));
  HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&dump.dropped));
  if (version >= 2) {
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&dump.names_dropped));
  }
  // A name takes at least its 4-byte length: no count may reserve more
  // than the bytes left could hold.
  if (name_count > dec.remaining() / 4) {
    return Status::Corruption("flight dump: truncated name table");
  }
  if (event_count > dec.remaining() / 32) {
    return Status::Corruption("flight dump: truncated event section");
  }
  dump.names.reserve(name_count);
  for (uint32_t i = 0; i < name_count; ++i) {
    uint32_t len = 0;
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed32(&len));
    if (len > dec.remaining()) {
      return Status::Corruption("flight dump: truncated name");
    }
    dump.names.emplace_back(body.substr(dec.position(), len));
    HDOV_RETURN_IF_ERROR(dec.Skip(len));
  }
  dump.events.reserve(static_cast<size_t>(event_count));
  for (uint64_t i = 0; i < event_count; ++i) {
    FlightEvent& ev = dump.events.emplace_back();
    HDOV_RETURN_IF_ERROR(DecodeFlightEvent(&dec, &ev));
    if (version == 1) {
      // v1 meta: type(16) | code(16) | thread(32), read here as the v2
      // fields; its thread's low half landed in `session`. Types fit in
      // 8 bits and v1 had no attribution.
      ev.thread = ev.session;
      ev.session = 0;
      ev.stage = 0;
    }
  }
  if (dec.remaining() != 0) {
    return Status::Corruption("flight dump: trailing bytes");
  }
  return dump;
}

Status FlightRecorder::WriteDump(const std::string& path, bool consume) {
  return WriteStringToFile(path, EncodeFlightDump(Drain(consume)),
                           "flight dump");
}

Result<FlightDump> FlightRecorder::ReadDump(const std::string& path) {
  HDOV_ASSIGN_OR_RETURN(const std::string data,
                        ReadFileToString(path, "flight dump"));
  return DecodeFlightDump(data);
}

FlightRecorder& GlobalFlightRecorder() {
  // Leaked for the same reason as the name table: instrumented objects in
  // static storage may record during teardown.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

}  // namespace hdov::telemetry
