#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "common/coding.h"
#include "telemetry/json.h"
#include "telemetry/trace_context.h"

namespace hdov::telemetry {

std::string_view FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kNone:
      return "none";
    case FlightEventType::kSpanBegin:
      return "span_begin";
    case FlightEventType::kSpanEnd:
      return "span_end";
    case FlightEventType::kPageRead:
      return "page_read";
    case FlightEventType::kPageWrite:
      return "page_write";
    case FlightEventType::kPoolHit:
      return "pool_hit";
    case FlightEventType::kPoolMiss:
      return "pool_miss";
    case FlightEventType::kFrameBegin:
      return "frame_begin";
    case FlightEventType::kFrameEnd:
      return "frame_end";
    case FlightEventType::kPrefetchUsed:
      return "prefetch_used";
    case FlightEventType::kPrefetchCancel:
      return "prefetch_cancel";
  }
  return "unknown";
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

uint64_t FlightNowNs() {
  const FlightClock& clock = GetFlightClock();
#if defined(__x86_64__)
  if (clock.use_tsc) {
    // Synchronized TSCs may still differ by a few ticks between cores, and
    // the read is not ordered against earlier instructions; the per-thread
    // floor keeps the timeline monotone on each thread regardless.
    thread_local uint64_t last_ns = 0;
    const uint64_t ns = TscToFlightNs(clock, __rdtsc());
    if (ns > last_ns) {
      last_ns = ns;
    }
    return last_ns;
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
  NameTable() { names[0] = "?"; }
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

}  // namespace

FlightRecorder::FlightRecorder(size_t events_per_thread)
    : capacity_(static_cast<size_t>(
          RoundUpPow2(std::max<uint64_t>(2, events_per_thread)))),
      serial_(g_recorder_serial.fetch_add(1, std::memory_order_relaxed)) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Buffer* FlightRecorder::LocalBuffer() {
  // Keyed by the recorder's process-unique serial, never by address, so a
  // recorder reusing a destroyed one's storage cannot match stale entries.
  struct CacheEntry {
    uint64_t serial;
    Buffer* buffer;
  };
  // The ring this thread used last. Trivially initialized, so the hit
  // path is one compare with no thread-local construction guard; serials
  // start at 1, so the zero entry never matches.
  thread_local CacheEntry last{0, nullptr};
  if (last.serial == serial_) {
    return last.buffer;
  }
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& entry : cache) {
    if (entry.serial == serial_) {
      last = entry;
      return entry.buffer;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>(
      capacity_, static_cast<uint32_t>(buffers_.size())));
  last = CacheEntry{serial_, buffers_.back().get()};
  cache.push_back(last);
  return last.buffer;
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

void FlightRecorder::Append(FlightEventType type, uint16_t code, uint64_t a,
                            uint64_t b, uint8_t stage, uint16_t session) {
  Buffer* buf = LocalBuffer();
  const uint64_t idx = buf->head.load(std::memory_order_relaxed);
  Slot& slot = buf->ring[idx & (capacity_ - 1)];
  slot.w[0].store(FlightNowNs(), std::memory_order_relaxed);
  slot.w[1].store(static_cast<uint64_t>(type) |
                      (static_cast<uint64_t>(stage) << 8) |
                      (static_cast<uint64_t>(code) << 16) |
                      (static_cast<uint64_t>(session) << 32) |
                      (static_cast<uint64_t>(buf->id & 0xffff) << 48),
                  std::memory_order_relaxed);
  slot.w[2].store(a, std::memory_order_relaxed);
  slot.w[3].store(b, std::memory_order_relaxed);
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

FlightDump FlightRecorder::Drain(bool consume) {
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
    struct Pending {
      uint64_t idx;
      FlightEvent event;
    };
    std::vector<Pending> pending;
    pending.reserve(static_cast<size_t>(head - consumed));
    for (uint64_t idx = consumed; idx < head; ++idx) {
      const Slot& slot = buf->ring[idx & (capacity_ - 1)];
      FlightEvent ev;
      ev.ts_ns = slot.w[0].load(std::memory_order_relaxed);
      const uint64_t meta = slot.w[1].load(std::memory_order_relaxed);
      ev.type = static_cast<uint8_t>(meta & 0xff);
      ev.stage = static_cast<uint8_t>((meta >> 8) & 0xff);
      ev.code = static_cast<uint16_t>((meta >> 16) & 0xffff);
      ev.session = static_cast<uint16_t>((meta >> 32) & 0xffff);
      ev.thread = static_cast<uint16_t>(meta >> 48);
      ev.a = slot.w[2].load(std::memory_order_relaxed);
      ev.b = slot.w[3].load(std::memory_order_relaxed);
      pending.push_back(Pending{idx, ev});
    }
    // A writer may have lapped part of the copied range mid-copy; re-read
    // the head and discard every index it could have overwritten (plus the
    // slot the writer may currently be filling, hence the +1).
    const uint64_t head_after = buf->head.load(std::memory_order_acquire);
    const uint64_t valid_from =
        head_after > capacity_ ? head_after - capacity_ + 1 : 0;
    for (const Pending& p : pending) {
      if (p.idx >= valid_from) {
        dump.events.push_back(p.event);
      }
    }
    if (consume) {
      buf->consumed.store(head, std::memory_order_relaxed);
    }
    dump.dropped += buf->lost.load(std::memory_order_relaxed);
  }
  std::stable_sort(dump.events.begin(), dump.events.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.ts_ns != y.ts_ns ? x.ts_ns < y.ts_ns
                                               : x.thread < y.thread;
                   });
  // Snapshot the global name table so the dump is self-describing.
  const size_t names = FlightNameCount();
  dump.names.reserve(names);
  for (size_t i = 0; i < names; ++i) {
    dump.names.emplace_back(FlightNameForId(static_cast<uint16_t>(i)));
  }
  dump.names_dropped = FlightNamesDropped();
  return dump;
}

// ---------------------------------------------------------------------
// Dump container: "HDOVFREC" magic, version, name table, packed events.
// v1: header {names, events, dropped}; event meta packs
//     type(16) | code(16) | thread(32).
// v2: header gains names_dropped; event meta packs
//     type(8) | stage(8) | code(16) | session(16) | thread(16).
// The reader accepts both; v1 events decode with session/stage zero
// (old dumps predate attribution).

namespace {
constexpr char kFlightMagic[8] = {'H', 'D', 'O', 'V', 'F', 'R', 'E', 'C'};
constexpr uint32_t kFlightVersion = 2;
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
    EncodeFixed64(&out, ev.ts_ns);
    EncodeFixed64(&out, static_cast<uint64_t>(ev.type) |
                            (static_cast<uint64_t>(ev.stage) << 8) |
                            (static_cast<uint64_t>(ev.code) << 16) |
                            (static_cast<uint64_t>(ev.session) << 32) |
                            (static_cast<uint64_t>(ev.thread) << 48));
    EncodeFixed64(&out, ev.a);
    EncodeFixed64(&out, ev.b);
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
  if (name_count > kMaxFlightNames) {
    return Status::Corruption("flight dump: name table too large");
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
    FlightEvent ev;
    uint64_t meta = 0;
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&ev.ts_ns));
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&meta));
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&ev.a));
    HDOV_RETURN_IF_ERROR(dec.DecodeFixed64(&ev.b));
    if (version >= 2) {
      ev.type = static_cast<uint8_t>(meta & 0xff);
      ev.stage = static_cast<uint8_t>((meta >> 8) & 0xff);
      ev.code = static_cast<uint16_t>((meta >> 16) & 0xffff);
      ev.session = static_cast<uint16_t>((meta >> 32) & 0xffff);
      ev.thread = static_cast<uint16_t>(meta >> 48);
    } else {
      // v1 layout; no session/stage attribution existed.
      ev.type = static_cast<uint8_t>(meta & 0xffff);
      ev.code = static_cast<uint16_t>((meta >> 16) & 0xffff);
      ev.thread = static_cast<uint16_t>((meta >> 32) & 0xffff);
      ev.session = 0;
      ev.stage = 0;
    }
    dump.events.push_back(ev);
  }
  if (dec.remaining() != 0) {
    return Status::Corruption("flight dump: trailing bytes");
  }
  return dump;
}

Status FlightRecorder::WriteDump(const std::string& path, bool consume) {
  const std::string encoded = EncodeFlightDump(Drain(consume));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("flight dump: cannot open " + path);
  }
  out.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
  if (!out) {
    return Status::IoError("flight dump: write to " + path + " failed");
  }
  return Status::OK();
}

Result<FlightDump> FlightRecorder::ReadDump(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("flight dump: cannot open " + path);
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::IoError("flight dump: read from " + path + " failed");
  }
  return DecodeFlightDump(data);
}

std::string FlightChromeTraceJson(const FlightDump& dump) {
  constexpr int kFlightPid = 3;  // Pids 1/2 belong to Telemetry's export.
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  w.BeginObject();
  w.Key("name").String("process_name");
  w.Key("ph").String("M");
  w.Key("pid").Number(static_cast<uint64_t>(kFlightPid));
  w.Key("args").BeginObject();
  w.Key("name").String("flight recorder (wall time)");
  w.EndObject();
  w.EndObject();
  for (const FlightEvent& ev : dump.events) {
    const auto type = static_cast<FlightEventType>(ev.type);
    const double ts_us = static_cast<double>(ev.ts_ns) / 1000.0;
    const auto emit = [&](std::string_view cat, std::string_view ph) {
      w.BeginObject();
      w.Key("name").String(dump.NameOf(ev));
      w.Key("cat").String(cat);
      w.Key("ph").String(ph);
      if (ph == "i") {
        w.Key("s").String("t");
      }
      w.Key("pid").Number(static_cast<uint64_t>(kFlightPid));
      w.Key("tid").Number(static_cast<uint64_t>(ev.thread));
      w.Key("ts").Number(ts_us);
      w.Key("args").BeginObject();
      w.Key("type").String(FlightEventTypeName(type));
      w.Key("a").Number(ev.a);
      w.Key("b").Number(ev.b);
      if (ev.session != 0) {
        w.Key("session").String(ev.session < dump.names.size()
                                    ? std::string_view(dump.names[ev.session])
                                    : std::string_view("?"));
      }
      if (ev.stage != 0) {
        w.Key("stage").String(
            TraceStageName(static_cast<TraceStage>(ev.stage)));
      }
      w.EndObject();
      w.EndObject();
    };
    switch (type) {
      case FlightEventType::kFrameBegin:
        emit("frame", "B");
        break;
      case FlightEventType::kFrameEnd:
        emit("frame", "E");
        break;
      case FlightEventType::kSpanBegin:
        emit("span", "B");
        break;
      case FlightEventType::kSpanEnd:
        emit("span", "E");
        break;
      case FlightEventType::kPageRead:
      case FlightEventType::kPageWrite:
        emit("io", "i");
        break;
      case FlightEventType::kPoolHit:
      case FlightEventType::kPoolMiss:
        emit("pool", "i");
        break;
      case FlightEventType::kPrefetchUsed:
      case FlightEventType::kPrefetchCancel:
        emit("prefetch", "i");
        break;
      case FlightEventType::kNone:
        break;
    }
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

FlightRecorder& GlobalFlightRecorder() {
  // Leaked for the same reason as the name table: instrumented objects in
  // static storage may record during teardown.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

}  // namespace hdov::telemetry
