// Shared experiment testbed for the paper-reproduction benchmarks. Builds
// the synthetic city, viewing-cell grid and precomputed visibility table
// that all experiment binaries run against, and provides the shared
// emit helpers (SeriesTable) through which each bench prints the
// rows/series of its paper counterpart AND records them into the
// machine-readable bench report — one call, one source of truth.
//
// Flags every bench accepts (see ParseBenchArgs):
//   --json-out=<path>       write a telemetry::BenchReport document
//                           (figure rows, counters, env fingerprint);
//   --flight-out=<path>     drain the always-on flight recorder, with
//                           the run's slow-frame captures, sampled spans
//                           and frame records, into one binary dump (see
//                           docs/telemetry.md; inspect with hdov_inspect
//                           --flight, which also converts it to a Chrome
//                           trace with --chrome-out);
//   --trace-sample=N        record span trees for 1-in-N queries (0, the
//                           default, records none); they ride in the
//                           --flight-out dump;
//   --threads=N             precompute/build workers (0 = hardware);
//   --db=<path>             load the testbed and every VISUAL system from
//                           a tools/hdov_build snapshot instead of
//                           rebuilding (see docs/storage.md).
//
// Numbers (N) are unsigned decimals that fit 32 bits; anything else, like
// an empty path, exits 2 with a message.
//
// Scale knob: set HDOV_BENCH_SCALE=large in the environment to run closer
// to the paper's dataset sizes (slower); the default is sized to finish
// each binary in seconds while preserving every qualitative shape.

#ifndef HDOV_BENCH_BENCH_UTIL_H_
#define HDOV_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/rng.h"
#include "persist/snapshot.h"
#include "scene/cell_grid.h"
#include "scene/city_generator.h"
#include "scene/session.h"
#include "telemetry/bench_report.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/slow_frame.h"
#include "telemetry/telemetry.h"
#include "testbed/testbed_glue.h"
#include "visibility/precompute.h"
#include "walkthrough/experiment_testbed.h"
#include "walkthrough/visual_system.h"

// Stamped by bench/CMakeLists.txt at configure time; informational only.
#ifndef HDOV_GIT_REVISION
#define HDOV_GIT_REVISION "unknown"
#endif

namespace hdov::bench {

// The world-construction glue itself lives in testbed/testbed_glue.h (a
// non-bench target, so tools and the serving layer can share it); these
// aliases keep the historical bench spellings working.
using testbed::BuildTestbedOrDie;
using testbed::LargeScale;
using testbed::DefaultTestbedOptions;
using testbed::DefaultVisualOptions;
using testbed::MakeVisualSystem;
using testbed::RandomViewpoints;
using testbed::PrintTestbedSummary;
using testbed::MB;

// The parsed --threads value, readable from DefaultTestbedOptions and
// DefaultVisualOptions so every bench gets the flag without per-bench
// plumbing.
inline uint32_t& BenchThreads() { return testbed::DefaultThreads(); }

// The parsed --db value; when non-empty, BuildTestbedOrDie and
// MakeVisualSystem load the world from that snapshot instead of
// rebuilding it.
inline std::string& BenchDbPath() { return testbed::DefaultDbPath(); }

struct BenchArgs {
  std::string json_out;       // Empty = bench report not written.
  std::string flight_out;     // Empty = run dump not written.
  std::string db_path;        // Empty = build the world from scratch.
  uint32_t threads = 1;       // Precompute/build workers (0 = hardware).
  uint32_t trace_sample = 0;  // Span tree for 1-in-N queries; 0 = off.
};

// Parses the flags shared by every experiment binary. Unknown flags abort
// so a typo does not silently run without its effect.
inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  constexpr const char kJsonOut[] = "--json-out=";
  constexpr const char kTraceSample[] = "--trace-sample=";
  constexpr const char kFlightOut[] = "--flight-out=";
  constexpr const char kDb[] = "--db=";
  constexpr const char kThreads[] = "--threads=";
  const auto path_flag = [](const char* arg, const char* flag, size_t len,
                            std::string* out) {
    if (std::strncmp(arg, flag, len) != 0) {
      return false;
    }
    *out = arg + len;
    if (out->empty()) {
      std::fprintf(stderr, "%s needs a path\n", flag);
      std::exit(2);
    }
    return true;
  };
  const auto count_flag = [](const char* arg, const char* flag, size_t len,
                             uint32_t* out) {
    if (std::strncmp(arg, flag, len) != 0) {
      return false;
    }
    // Digits only: strtoull alone would skip a sign ("-1" wraps to the
    // type's maximum) and leading blanks.
    const char* value = arg + len;
    const bool digit = *value >= '0' && *value <= '9';
    char* end = nullptr;
    const unsigned long long parsed =
        digit ? std::strtoull(value, &end, 10) : 0;
    if (!digit || *end != '\0' || parsed > UINT32_MAX) {
      std::fprintf(stderr, "%s needs a number\n", flag);
      std::exit(2);
    }
    *out = static_cast<uint32_t>(parsed);
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    if (path_flag(argv[i], kJsonOut, sizeof(kJsonOut) - 1, &args.json_out) ||
        path_flag(argv[i], kFlightOut, sizeof(kFlightOut) - 1,
                  &args.flight_out) ||
        path_flag(argv[i], kDb, sizeof(kDb) - 1, &args.db_path) ||
        count_flag(argv[i], kTraceSample, sizeof(kTraceSample) - 1,
                   &args.trace_sample) ||
        count_flag(argv[i], kThreads, sizeof(kThreads) - 1,
                   &args.threads)) {
      continue;
    }
    std::fprintf(stderr,
                 "unknown flag %s (supported: %s<path>, %sN, %s<path>,"
                 " %s<path>, %sN)\n",
                 argv[i], kJsonOut, kTraceSample, kFlightOut, kDb,
                 kThreads);
    std::exit(2);
  }
  BenchDbPath() = args.db_path;
  BenchThreads() = args.threads;
  return args;
}

// Owns the bench's Telemetry context and BenchReport, and writes the
// requested output files at the end of the run. Telemetry is attached
// when --json-out or --flight-out is given, or --trace-sample turns span
// recording on (the report's counter digest, the run dump's frame records
// and the trace come from it); with no flags the instrumentation stays
// detached and the report is print-only.
//
// Declare the scope BEFORE the systems it attaches: systems unregister
// themselves from the context on destruction, so the context must be
// destroyed last — and Write() must run while they still live, or the
// captured metric snapshot loses their registered views.
class TelemetryScope {
 public:
  TelemetryScope(const BenchArgs& args, const char* binary)
      : json_out_(args.json_out), flight_out_(args.flight_out) {
    if (!flight_out_.empty()) {
      // Fresh capture window for this run, on the trailing-p99 trigger.
      telemetry::GlobalSlowFrameCapture().Configure(
          telemetry::SlowFrameOptions());
    }
    if (!json_out_.empty() || !flight_out_.empty() ||
        args.trace_sample > 0) {
      telemetry_ = std::make_unique<telemetry::Telemetry>();
      if (args.trace_sample > 0) {
        telemetry_->tracer().set_enabled(true);
        telemetry_->tracer().set_sample_every(args.trace_sample);
      }
    }
    report_.set_binary(binary);
    report_.set_scale(LargeScale() ? "large" : "default");
    telemetry::BenchEnvironment env;
    env.git_revision = HDOV_GIT_REVISION;
    env.cpu_count = std::thread::hardware_concurrency();
    env.threads = args.threads;
    report_.set_environment(std::move(env));
  }

  bool on() const { return telemetry_ != nullptr; }
  telemetry::Telemetry* get() { return telemetry_.get(); }
  telemetry::BenchReport* report() { return &report_; }

  // Prints the standard bench banner and stamps the title into the
  // report, so the two cannot disagree.
  void Header(const char* title, const char* paper_ref) {
    report_.set_title(title);
    std::printf(
        "==============================================================\n");
    std::printf("%s\n", title);
    std::printf("(reproduces %s of 'HDoV-tree: The Structure, The Storage,"
                " The Speed', ICDE 2003)\n", paper_ref);
    std::printf(
        "==============================================================\n");
  }

  void Attach(WalkthroughSystem* system, const std::string& prefix) {
    if (telemetry_ != nullptr) {
      system->AttachTelemetry(telemetry_.get(), prefix);
    }
  }

  // Writes every requested output (idempotent). Returns false on I/O
  // failure. Call while attached systems are still alive.
  bool Write() {
    if (written_) {
      return true;
    }
    written_ = true;
    bool ok = true;
    if (!json_out_.empty()) {
      if (telemetry_ != nullptr) {
        report_.CaptureFrom(*telemetry_);
      }
      if (Status s = report_.WriteFile(json_out_); !s.ok()) {
        std::fprintf(stderr, "bench report: %s\n", s.ToString().c_str());
        ok = false;
      } else {
        std::printf("\nbench report: wrote %s\n", json_out_.c_str());
      }
    }
    if (!flight_out_.empty()) {
      telemetry::FlightRecorder& recorder =
          telemetry::GlobalFlightRecorder();
      telemetry::SlowFrameCapture& capture =
          telemetry::GlobalSlowFrameCapture();
      telemetry::FlightDump run = capture.RunDump(recorder.Drain());
      const size_t spans = telemetry_->tracer().num_spans();
      if (spans > 0) {
        run = telemetry::MergeTraceDump(std::move(run),
                                        telemetry_->tracer().dump());
      }
      telemetry::AppendFrameRecords(*telemetry_, &run);
      const std::string dump = telemetry::EncodeFlightDump(run);
      if (Status s = WriteStringToFile(flight_out_, dump, "flight dump");
          !s.ok()) {
        std::fprintf(stderr, "flight: %s\n", s.ToString().c_str());
        ok = false;
      } else {
        std::printf("\nflight: wrote %s (%llu events recorded, %llu"
                    " dropped; %zu slow-frame captures over %llu frames;"
                    " %zu spans; %zu frame records)\n",
                    flight_out_.c_str(),
                    static_cast<unsigned long long>(
                        recorder.events_recorded()),
                    static_cast<unsigned long long>(
                        recorder.events_dropped()),
                    capture.captures(),
                    static_cast<unsigned long long>(capture.frames_seen()),
                    spans, telemetry_->frames().size());
        if (telemetry::FlightNamesDropped() > 0) {
          std::printf("flight: WARNING %llu intern calls degraded to \"?\""
                      " (name table full at %zu)\n",
                      static_cast<unsigned long long>(
                          telemetry::FlightNamesDropped()),
                      telemetry::kMaxFlightNames);
        }
      }
    }
    return ok;
  }

 private:
  std::string json_out_;
  std::string flight_out_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  telemetry::BenchReport report_;
  bool written_ = false;
};

// The shared figure/table emitter: prints an aligned stdout table AND
// appends each row to the named report series, so the human-readable and
// machine-readable outputs cannot drift apart. Every column is a
// simulated value that bench_compare compares exactly, so a value that
// depends on wall time or thread scheduling has no place in a table.
class SeriesTable {
 public:
  struct Col {
    std::string header;
    int width = 12;
    int precision = 2;
  };

  SeriesTable(telemetry::BenchReport* report, const std::string& name,
              const std::string& label_header, int label_width,
              std::vector<Col> cols)
      : label_width_(label_width), cols_(std::move(cols)) {
    if (report != nullptr) {
      std::vector<telemetry::SeriesColumn> columns;
      columns.reserve(cols_.size());
      for (const Col& c : cols_) {
        columns.push_back(telemetry::SeriesColumn{c.header});
      }
      series_ = report->AddSeries(name, std::move(columns));
    }
    std::printf("%-*s", label_width_, label_header.c_str());
    for (const Col& c : cols_) {
      std::printf(" %*s", c.width, c.header.c_str());
    }
    std::printf("\n");
  }

  void Row(const std::string& label, std::initializer_list<double> values) {
    if (values.size() != cols_.size()) {
      std::fprintf(stderr, "SeriesTable: %zu values for %zu columns\n",
                   values.size(), cols_.size());
      std::abort();
    }
    std::printf("%-*s", label_width_, label.c_str());
    size_t i = 0;
    for (double v : values) {
      std::printf(" %*.*f", cols_[i].width, cols_[i].precision, v);
      ++i;
    }
    std::printf("\n");
    if (series_ != nullptr) {
      series_->rows.push_back(telemetry::SeriesRow{label, values});
    }
  }

 private:
  telemetry::ReportSeries* series_ = nullptr;
  int label_width_;
  std::vector<Col> cols_;
};

}  // namespace hdov::bench

#endif  // HDOV_BENCH_BENCH_UTIL_H_
