// hdov_inspect: read-only inspector over the observability artifacts a
// run leaves behind — world snapshots (tools/hdov_build), flight-recorder
// dumps (--flight-out) and telemetry JSON files (--telemetry-out):
//
//   hdov_inspect --db=<world.hdov> [--check]
//   hdov_inspect --flight=<dump.bin> [--chrome-out=<trace.json>]
//   hdov_inspect --slowdump=<slow.bin> [--chrome-out=<trace.json>]
//   hdov_inspect --telemetry=<telemetry.json>
//
// --db prints the snapshot's section catalog, tree shape (depth, fanout
// and entry-count histogram), per-cell DoV histogram and per-scheme
// V-page occupancy. With --check every blob is re-read through the
// checksummed path and every device section restored, so a snapshot that
// cannot be fully read back fails the run with a nonzero exit (the CI
// persist-roundtrip job runs exactly this).
//
// --flight prints per-type, per-source, per-session and per-stage event
// rollups of a recorder dump (pages_read adds the pages of per-run
// page_read and aggregated page_read_agg events); --chrome-out converts
// it to a Chrome trace-event file.
//
// --slowdump prints the captured slow frames of a --slowdump-out file:
// per capture the session, frame, queue-wait vs service time, the
// threshold that tripped, the per-stage breakdown and the flight events
// caught in the frame's window; --chrome-out converts the captures to a
// Chrome trace with one track per session.
//
// --telemetry prints per-system frame rollups of a telemetry snapshot.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hdov/builder.h"
#include "hdov/hdov_tree.h"
#include "persist/snapshot.h"
#include "persist/world_codec.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/flight_rollup.h"
#include "telemetry/json.h"
#include "telemetry/slow_frame.h"
#include "telemetry/trace_context.h"
#include "visibility/precompute.h"

namespace hdov {
namespace {

struct InspectArgs {
  std::string db;
  std::string flight;
  std::string slowdump;
  std::string telemetry;
  std::string chrome_out;
  bool check = false;
};

[[noreturn]] void Usage(const char* flag) {
  std::fprintf(stderr,
               "hdov_inspect: bad flag %s\n"
               "usage: hdov_inspect [--db=<world.hdov>] [--check]\n"
               "  [--flight=<dump.bin>] [--chrome-out=<trace.json>]\n"
               "  [--slowdump=<slow.bin>]\n"
               "  [--telemetry=<telemetry.json>]\n",
               flag);
  std::exit(2);
}

InspectArgs Parse(int argc, char** argv) {
  InspectArgs args;
  const auto path_flag = [](const char* arg, const char* name,
                            std::string* out) {
    const size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0) {
      return false;
    }
    *out = arg + len;
    if (out->empty()) {
      Usage(arg);
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    if (path_flag(argv[i], "--db=", &args.db) ||
        path_flag(argv[i], "--flight=", &args.flight) ||
        path_flag(argv[i], "--slowdump=", &args.slowdump) ||
        path_flag(argv[i], "--telemetry=", &args.telemetry) ||
        path_flag(argv[i], "--chrome-out=", &args.chrome_out)) {
      continue;
    }
    if (std::strcmp(argv[i], "--check") == 0) {
      args.check = true;
    } else {
      Usage(argv[i]);
    }
  }
  if (args.db.empty() && args.flight.empty() && args.slowdump.empty() &&
      args.telemetry.empty()) {
    Usage("(no input)");
  }
  return args;
}

// Fixed-width histogram over [0, 1] DoV values plus a dedicated zero
// bucket (hidden entries dominate and would otherwise swamp bucket 0).
void PrintDovHistogram(const VisibilityTable& table) {
  constexpr int kBuckets = 10;
  uint64_t zero = 0;
  uint64_t buckets[kBuckets] = {};
  uint64_t total = 0;
  double dov_sum = 0.0;
  for (CellId c = 0; c < table.num_cells(); ++c) {
    const CellVisibility& cell = table.cell(c);
    for (float dov : cell.dov) {
      ++total;
      dov_sum += dov;
      if (dov <= 0.0f) {
        ++zero;
        continue;
      }
      int b = static_cast<int>(dov * kBuckets);
      buckets[std::min(b, kBuckets - 1)] += 1;
    }
  }
  std::printf("dov histogram (%llu (cell, object) records, mean %.4f):\n",
              static_cast<unsigned long long>(total),
              total > 0 ? dov_sum / static_cast<double>(total) : 0.0);
  const auto bar = [&](uint64_t count) {
    const int width = total > 0
                          ? static_cast<int>(
                                60.0 * static_cast<double>(count) /
                                static_cast<double>(total))
                          : 0;
    return std::string(static_cast<size_t>(width), '#');
  };
  std::printf("  %-12s %10llu %s\n", "= 0",
              static_cast<unsigned long long>(zero), bar(zero).c_str());
  for (int b = 0; b < kBuckets; ++b) {
    char label[32];
    std::snprintf(label, sizeof(label), "(%.1f, %.1f]", b / 10.0,
                  (b + 1) / 10.0);
    std::printf("  %-12s %10llu %s\n", label,
                static_cast<unsigned long long>(buckets[b]),
                bar(buckets[b]).c_str());
  }
}

void PrintTreeStats(const HdovTree& tree) {
  std::printf("tree: %zu nodes, height %d, fanout %zu, s ratio %.3f\n",
              tree.num_nodes(), tree.height(), tree.fanout(),
              tree.s_ratio());
  std::map<int, size_t> per_level;
  std::map<size_t, size_t> entry_counts;
  size_t leaves = 0;
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const HdovNode& node = tree.node(i);
    per_level[node.level] += 1;
    entry_counts[node.entries.size()] += 1;
    if (node.is_leaf) {
      ++leaves;
    }
  }
  std::printf("  %zu leaves; nodes per level:", leaves);
  for (const auto& [level, count] : per_level) {
    std::printf(" L%d=%zu", level, count);
  }
  std::printf("\n  entries per node:");
  for (const auto& [entries, count] : entry_counts) {
    std::printf(" %zux%zu", entries, count);
  }
  std::printf("\n");
}

int InspectDb(const InspectArgs& args) {
  Result<std::unique_ptr<SnapshotLoader>> opened =
      SnapshotLoader::Open(args.db);
  if (!opened.ok()) {
    std::fprintf(stderr, "hdov_inspect: %s: %s\n", args.db.c_str(),
                 opened.status().ToString().c_str());
    return 1;
  }
  SnapshotLoader& snapshot = **opened;
  const std::vector<std::string> sections = snapshot.SectionNames();
  std::printf("snapshot: %s (page size %u, %zu sections)\n",
              args.db.c_str(), snapshot.page_size(), sections.size());
  for (const std::string& name : sections) {
    std::printf("  section %s\n", name.c_str());
  }

  DiskModel disk;
  disk.page_size = snapshot.page_size();

  if (args.check) {
    // Full read-back: every section must come back through its
    // checksummed path. Blobs and devices are distinguished by trying the
    // blob read first — a device section fails it with a kind mismatch.
    size_t blobs = 0;
    size_t devices = 0;
    for (const std::string& name : sections) {
      if (snapshot.ReadBlob(name).ok()) {
        ++blobs;
        continue;
      }
      PageDevice device(disk);
      if (Status s = snapshot.RestoreDevice(name, &device); !s.ok()) {
        std::fprintf(stderr,
                     "hdov_inspect: check failed on section %s: %s\n",
                     name.c_str(), s.ToString().c_str());
        return 1;
      }
      ++devices;
    }
    std::printf("check: OK — %zu blobs + %zu devices read back\n", blobs,
                devices);
  }

  // Tree shape. Restoring the node device and decoding the manifest is
  // exactly what VisualSystem::CreateFromSnapshot does at load time.
  PageDevice tree_device(disk);
  HdovTree tree;
  bool have_tree = false;
  if (snapshot.Contains(kSectionTreeManifest) &&
      snapshot.Contains(kSectionTreeDevice)) {
    Status status = [&]() -> Status {
      HDOV_ASSIGN_OR_RETURN(std::string manifest,
                            snapshot.ReadBlob(kSectionTreeManifest));
      HDOV_RETURN_IF_ERROR(
          snapshot.RestoreDevice(kSectionTreeDevice, &tree_device));
      HDOV_ASSIGN_OR_RETURN(tree,
                            HdovTree::FromManifest(&tree_device, manifest));
      return Status::OK();
    }();
    if (!status.ok()) {
      std::fprintf(stderr, "hdov_inspect: tree: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    have_tree = true;
    PrintTreeStats(tree);
  }

  if (snapshot.Contains(kSectionVisTable)) {
    Status status = [&]() -> Status {
      HDOV_ASSIGN_OR_RETURN(std::string bytes,
                            snapshot.ReadBlob(kSectionVisTable));
      HDOV_ASSIGN_OR_RETURN(VisibilityTable table,
                            DecodeVisibilityTable(bytes));
      std::printf("visibility: %u cells, avg %.1f visible objects/cell\n",
                  table.num_cells(), table.AverageVisibleObjects());
      PrintDovHistogram(table);
      return Status::OK();
    }();
    if (!status.ok()) {
      std::fprintf(stderr, "hdov_inspect: visibility: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  // Per-scheme V-page occupancy: store bytes vs the pages its device
  // actually allocates (page-packing slack + scheme directories).
  if (have_tree) {
    std::printf("storage schemes:\n");
    for (uint8_t raw = 0; raw <= 3; ++raw) {
      const StorageScheme scheme = static_cast<StorageScheme>(raw);
      const std::string name = StorageSchemeName(scheme);
      const std::string meta_section = StoreMetaSection(name);
      const std::string device_section = StoreDeviceSection(name);
      if (!snapshot.Contains(meta_section) ||
          !snapshot.Contains(device_section)) {
        continue;
      }
      PageDevice store_device(disk);
      Status status = [&]() -> Status {
        HDOV_ASSIGN_OR_RETURN(std::string meta,
                              snapshot.ReadBlob(meta_section));
        HDOV_RETURN_IF_ERROR(
            snapshot.RestoreDevice(device_section, &store_device));
        HDOV_ASSIGN_OR_RETURN(
            std::unique_ptr<VisibilityStore> store,
            LoadStore(scheme, tree, meta, &store_device));
        const uint64_t store_bytes = store->SizeBytes();
        const uint64_t device_bytes = store_device.SizeBytes();
        // Pages are stored zero-padded, so estimate each page's payload
        // as everything up to its last non-zero byte; the gap to the
        // device footprint is page-packing slack.
        uint64_t payload_bytes = 0;
        std::string page;
        for (PageId p = 0; p < store_device.page_count(); ++p) {
          if (!store_device.IsMaterialized(p)) {
            continue;
          }
          HDOV_RETURN_IF_ERROR(store_device.ReadRaw(p, &page));
          const size_t last = page.find_last_not_of('\0');
          payload_bytes += last == std::string::npos ? 0 : last + 1;
        }
        std::printf("  %-17s %8.2f MB over %6llu pages (~%4.1f%%"
                    " page occupancy)\n",
                    name.c_str(),
                    static_cast<double>(store_bytes) / (1024.0 * 1024.0),
                    static_cast<unsigned long long>(
                        store_device.page_count()),
                    device_bytes > 0
                        ? 100.0 * static_cast<double>(payload_bytes) /
                              static_cast<double>(device_bytes)
                        : 0.0);
        return Status::OK();
      }();
      if (!status.ok()) {
        std::fprintf(stderr, "hdov_inspect: store %s: %s\n", name.c_str(),
                     status.ToString().c_str());
        return 1;
      }
    }
  }
  return 0;
}

// Writes a --chrome-out conversion; 0 on success, 1 (with a message on
// stderr) when the file cannot be opened or written. `what` names the
// layout in the success line.
int WriteChromeOut(const std::string& path,
                   const telemetry::ChromeTraceSources& sources,
                   const char* what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "hdov_inspect: cannot open %s\n", path.c_str());
    return 1;
  }
  out << telemetry::ChromeTraceJson(sources);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "hdov_inspect: write failed: %s\n", path.c_str());
    return 1;
  }
  std::printf("chrome trace: wrote %s (%sopen in chrome://tracing)\n",
              path.c_str(), what);
  return 0;
}

int InspectFlight(const InspectArgs& args) {
  Result<telemetry::FlightDump> read =
      telemetry::FlightRecorder::ReadDump(args.flight);
  if (!read.ok()) {
    std::fprintf(stderr, "hdov_inspect: %s: %s\n", args.flight.c_str(),
                 read.status().ToString().c_str());
    return 1;
  }
  const telemetry::FlightDump& dump = *read;
  const double span_ms =
      dump.events.empty()
          ? 0.0
          : static_cast<double>(dump.events.back().ts_ns -
                                dump.events.front().ts_ns) /
                1e6;
  std::printf("flight dump: %s — %zu events (%llu dropped), %zu names,"
              " %.2f ms span\n",
              args.flight.c_str(), dump.events.size(),
              static_cast<unsigned long long>(dump.dropped),
              dump.names.size(), span_ms);
  if (dump.names_dropped > 0) {
    std::printf("WARNING: %llu intern calls hit the %zu-name table cap and"
                " degraded to \"?\" — per-source rollups undercount\n",
                static_cast<unsigned long long>(dump.names_dropped),
                telemetry::kMaxFlightNames);
  }

  const telemetry::FlightRollup rollup = telemetry::RollUpFlightDump(dump);
  std::printf("events by type:");
  for (const auto& [type, count] : rollup.by_type) {
    std::printf(" %s=%llu",
                std::string(telemetry::FlightEventTypeName(
                                static_cast<telemetry::FlightEventType>(
                                    type)))
                    .c_str(),
                static_cast<unsigned long long>(count));
  }
  std::printf("\nevents by thread:");
  for (const auto& [thread, count] : rollup.by_thread) {
    std::printf(" t%u=%llu", thread,
                static_cast<unsigned long long>(count));
  }
  // Seeks come from page_read_agg events only: a per-run page_read (a
  // read outside any stage, or a prefetch-diverted one) carries none.
  std::printf("\nper-source rollup:\n");
  std::printf("  %-24s %10s %10s %8s %8s %10s %10s %8s %10s %8s\n",
              "source", "events", "pages_read", "runs", "seeks",
              "pool_hits", "pool_miss", "frames", "io_pages", "spans");
  for (const auto& [name, roll] : rollup.by_source) {
    std::printf("  %-24s %10llu %10llu %8llu %8llu %10llu %10llu %8llu"
                " %10llu %8llu\n",
                name.c_str(),
                static_cast<unsigned long long>(roll.events),
                static_cast<unsigned long long>(roll.pages_read),
                static_cast<unsigned long long>(roll.runs),
                static_cast<unsigned long long>(roll.seeks),
                static_cast<unsigned long long>(roll.pool_hits),
                static_cast<unsigned long long>(roll.pool_misses),
                static_cast<unsigned long long>(roll.frames),
                static_cast<unsigned long long>(roll.io_pages),
                static_cast<unsigned long long>(roll.spans));
  }
  std::printf("per-session rollup:\n");
  std::printf("  %-24s %10s %10s %8s %8s %10s %10s %8s %10s\n", "session",
              "events", "pages_read", "runs", "seeks", "pool_hits",
              "pool_miss", "frames", "io_pages");
  for (const auto& [name, roll] : rollup.by_session) {
    std::printf("  %-24s %10llu %10llu %8llu %8llu %10llu %10llu %8llu"
                " %10llu\n",
                name.c_str(),
                static_cast<unsigned long long>(roll.events),
                static_cast<unsigned long long>(roll.pages_read),
                static_cast<unsigned long long>(roll.runs),
                static_cast<unsigned long long>(roll.seeks),
                static_cast<unsigned long long>(roll.pool_hits),
                static_cast<unsigned long long>(roll.pool_misses),
                static_cast<unsigned long long>(roll.frames),
                static_cast<unsigned long long>(roll.io_pages));
  }
  bool any_prefetch = false;
  for (const auto& [name, roll] : rollup.by_session) {
    any_prefetch = any_prefetch || roll.prefetch_issued != 0 ||
                   roll.prefetch_used != 0 || roll.prefetch_cancelled != 0;
  }
  if (any_prefetch) {
    std::printf("per-session prefetch rollup (pages):\n");
    std::printf("  %-24s %10s %10s %10s %8s\n", "session", "issued",
                "used", "cancelled", "wasted");
    for (const auto& [name, roll] : rollup.by_session) {
      if (roll.prefetch_issued == 0 && roll.prefetch_used == 0 &&
          roll.prefetch_cancelled == 0) {
        continue;
      }
      const uint64_t used =
          std::min(roll.prefetch_used, roll.prefetch_issued);
      const double wasted =
          roll.prefetch_issued > 0
              ? static_cast<double>(roll.prefetch_issued - used) /
                    static_cast<double>(roll.prefetch_issued)
              : 0.0;
      std::printf("  %-24s %10llu %10llu %10llu %8.3f\n", name.c_str(),
                  static_cast<unsigned long long>(roll.prefetch_issued),
                  static_cast<unsigned long long>(roll.prefetch_used),
                  static_cast<unsigned long long>(
                      roll.prefetch_cancelled),
                  wasted);
    }
  }
  const auto print_by_stage = [&](const char* title,
                                  uint64_t telemetry::FlightTotals::*field) {
    std::printf("%s", title);
    for (size_t s = 0; s < telemetry::kNumTraceStages; ++s) {
      std::printf(" %s=%llu",
                  std::string(telemetry::TraceStageName(
                                  static_cast<telemetry::TraceStage>(s)))
                      .c_str(),
                  static_cast<unsigned long long>(rollup.by_stage[s].*field));
    }
    std::printf("\n");
  };
  print_by_stage("events by stage:", &telemetry::FlightTotals::events);
  print_by_stage("pages read by stage:",
                 &telemetry::FlightTotals::pages_read);

  if (!args.chrome_out.empty()) {
    return WriteChromeOut(args.chrome_out, {.flight = &dump}, "");
  }
  return 0;
}

int InspectSlowdump(const InspectArgs& args) {
  Result<telemetry::SlowDump> read =
      telemetry::SlowFrameCapture::ReadDump(args.slowdump);
  if (!read.ok()) {
    std::fprintf(stderr, "hdov_inspect: %s: %s\n", args.slowdump.c_str(),
                 read.status().ToString().c_str());
    return 1;
  }
  const telemetry::SlowDump& dump = *read;
  std::printf("slow dump: %s — %zu captures over %llu frames seen"
              " (%llu triggers dropped past the cap)\n",
              args.slowdump.c_str(), dump.captures.size(),
              static_cast<unsigned long long>(dump.frames_seen),
              static_cast<unsigned long long>(dump.captures_dropped));
  for (size_t i = 0; i < dump.captures.size(); ++i) {
    const telemetry::SlowFrameEntry& cap = dump.captures[i];
    const telemetry::FrameStageRecord& r = cap.record;
    std::printf(
        "capture %zu: session %s frame %llu — queue %.3f ms,"
        " service %.3f ms (tripped > %.3f ms), %llu sim pages\n",
        i, std::string(dump.NameOf(r.session)).c_str(),
        static_cast<unsigned long long>(r.frame), r.queue_ns / 1e6,
        r.wall_ns / 1e6, cap.trip_threshold_ms,
        static_cast<unsigned long long>(r.io_pages));
    std::printf("  stage breakdown:");
    for (size_t s = 0; s < telemetry::kNumTraceStages; ++s) {
      const double ms = r.stages.ns[s] / 1e6;
      const double total = r.stages.total_ns() / 1e6;
      std::printf(" %s=%.3fms(%.0f%%)",
                  std::string(telemetry::TraceStageName(
                                  static_cast<telemetry::TraceStage>(s)))
                      .c_str(),
                  ms, total > 0.0 ? 100.0 * ms / total : 0.0);
    }
    // The captured flight events of the frame's window, rolled up by
    // type (the full event list is in the Chrome trace conversion).
    std::map<uint8_t, uint64_t> by_type;
    telemetry::FlightTotals window;
    for (const telemetry::FlightEvent& e : cap.events) {
      by_type[e.type] += 1;
      window.Add(e);
    }
    std::printf("\n  %zu flight events in window:", cap.events.size());
    for (const auto& [type, count] : by_type) {
      std::printf(" %s=%llu",
                  std::string(telemetry::FlightEventTypeName(
                                  static_cast<telemetry::FlightEventType>(
                                      type)))
                      .c_str(),
                  static_cast<unsigned long long>(count));
    }
    std::printf("\n");
    if (window.prefetch_issued != 0 || window.prefetch_used != 0 ||
        window.prefetch_cancelled != 0) {
      std::printf("  prefetch in window: issued=%llu used=%llu"
                  " cancelled=%llu pages\n",
                  static_cast<unsigned long long>(window.prefetch_issued),
                  static_cast<unsigned long long>(window.prefetch_used),
                  static_cast<unsigned long long>(window.prefetch_cancelled));
    }
  }

  // --chrome-out belongs to --flight when both inputs are given.
  if (!args.chrome_out.empty() && args.flight.empty()) {
    return WriteChromeOut(args.chrome_out, {.slow = &dump},
                          "one track per session; ");
  }
  return 0;
}

int InspectTelemetry(const InspectArgs& args) {
  std::ifstream in(args.telemetry, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "hdov_inspect: cannot open %s\n",
                 args.telemetry.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<telemetry::JsonValue> parsed =
      telemetry::ParseJson(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "hdov_inspect: %s: %s\n", args.telemetry.c_str(),
                 parsed.status().ToString().c_str());
    return 1;
  }
  const telemetry::JsonValue& doc = *parsed;
  const telemetry::JsonValue* metrics = doc.Find("metrics");
  const telemetry::JsonValue* frames = doc.Find("frames");
  if (!doc.is_object() || metrics == nullptr || !metrics->is_array()) {
    std::fprintf(stderr,
                 "hdov_inspect: %s is not a telemetry snapshot\n",
                 args.telemetry.c_str());
    return 1;
  }
  std::printf("telemetry: %s — %zu metrics, %zu frame records\n",
              args.telemetry.c_str(), metrics->items.size(),
              frames != nullptr && frames->is_array() ? frames->items.size()
                                                      : 0);
  if (frames == nullptr || !frames->is_array() || frames->items.empty()) {
    return 0;
  }
  // Session rollup: one row per (system, kind) with frame counts and
  // simulated I/O / time totals.
  struct FrameRollup {
    uint64_t frames = 0;
    double frame_time_ms = 0.0;
    double io_pages = 0.0;
    double triangles = 0.0;
  };
  std::map<std::string, FrameRollup> by_system;
  for (const telemetry::JsonValue& frame : frames->items) {
    const telemetry::JsonValue* system = frame.Find("system");
    const telemetry::JsonValue* kind = frame.Find("kind");
    std::string key = system != nullptr ? system->string : "?";
    if (kind != nullptr && !kind->string.empty()) {
      key += "/" + kind->string;
    }
    FrameRollup& roll = by_system[key];
    roll.frames += 1;
    const auto num = [&frame](const char* name) {
      const telemetry::JsonValue* v = frame.Find(name);
      return v != nullptr && v->is_number() ? v->number : 0.0;
    };
    roll.frame_time_ms += num("frame_time_ms");
    roll.io_pages += num("io_pages");
    roll.triangles += num("rendered_triangles");
  }
  std::printf("  %-28s %8s %14s %12s %14s\n", "system/kind", "frames",
              "frame_ms_sum", "io_pages", "triangles");
  for (const auto& [key, roll] : by_system) {
    std::printf("  %-28s %8llu %14.2f %12.0f %14.0f\n", key.c_str(),
                static_cast<unsigned long long>(roll.frames),
                roll.frame_time_ms, roll.io_pages, roll.triangles);
  }
  return 0;
}

int Run(const InspectArgs& args) {
  if (!args.db.empty()) {
    if (int rc = InspectDb(args); rc != 0) {
      return rc;
    }
  }
  if (!args.flight.empty()) {
    if (int rc = InspectFlight(args); rc != 0) {
      return rc;
    }
  }
  if (!args.slowdump.empty()) {
    if (int rc = InspectSlowdump(args); rc != 0) {
      return rc;
    }
  }
  if (!args.telemetry.empty()) {
    if (int rc = InspectTelemetry(args); rc != 0) {
      return rc;
    }
  }
  return 0;
}

}  // namespace
}  // namespace hdov

int main(int argc, char** argv) {
  return hdov::Run(hdov::Parse(argc, argv));
}
