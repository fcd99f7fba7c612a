// BenchReport: the machine-readable record of one benchmark run. Every
// bench binary accepts `--json-out=<path>` and writes one standardized
// JSON document carrying
//
//   - provenance: binary name, scale, git revision, an environment
//     fingerprint (CPU count, --threads);
//   - every figure/table row the binary printed, as structured *series*
//     (the stdout tables and the JSON rows come from the same emit call,
//     so they cannot drift apart);
//   - the full metric snapshot and per-system frame-record totals.
//
// A report holds simulated values only: page reads, seeks, V-page
// fetches, simulated milliseconds. They are deterministic, so every one
// of them is compared exactly. Wall-clock time has its own contract,
// perfbench/, and never enters a report.
//
// CompareReports() is the other half: it diffs two parsed report
// documents and fails on any drift. `tools/bench_compare` is a thin CLI
// over it; the `baseline` ctests run it against the checked-in
// `bench/baselines/BENCH_*.json` files (see EXPERIMENTS.md).

#ifndef HDOV_TELEMETRY_BENCH_REPORT_H_
#define HDOV_TELEMETRY_BENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"

namespace hdov::telemetry {

class Telemetry;

// Wall-clock stopwatch (tools/hdov_build times its phases with it; no
// bench report holds its readings).
class WallTimer {
 public:
  // A system clock would go backwards under NTP steps and produce
  // negative intervals.
  static_assert(std::chrono::steady_clock::is_steady,
                "WallTimer requires a monotonic clock source");

  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// A series column is a name; its values are simulated and compared
// exactly, like everything else in a report.
struct SeriesColumn {
  std::string name;
};

struct SeriesRow {
  std::string label;
  std::vector<double> values;  // One per column.
};

// One figure/table of the bench: a label column plus numeric columns.
struct ReportSeries {
  std::string name;
  std::vector<SeriesColumn> columns;
  std::vector<SeriesRow> rows;
};

// Sums of the FrameRecords one system emitted during the run — a compact
// deterministic digest that survives the system's destruction (registry
// views vanish with their system; frame records do not).
struct FrameTotals {
  std::string system;
  std::string kind;  // "frame" or "query".
  uint64_t frames = 0;
  double frame_time_ms = 0.0;
  double query_time_ms = 0.0;
  uint64_t io_pages = 0;
  uint64_t light_io_pages = 0;
  uint64_t index_bytes_read = 0;
  uint64_t store_bytes_read = 0;
  uint64_t model_bytes_read = 0;
  uint64_t nodes_visited = 0;
  uint64_t vpages_fetched = 0;
  uint64_t hidden_pruned = 0;
  uint64_t internal_terminations = 0;
  uint64_t rendered_triangles = 0;
  uint64_t models_fetched = 0;
};

struct BenchEnvironment {
  std::string git_revision;  // Informational; never compared.
  uint32_t cpu_count = 0;
  uint32_t threads = 0;  // The bench's --threads value.
};

class BenchReport {
 public:
  void set_binary(std::string name) { binary_ = std::move(name); }
  void set_title(std::string title) { title_ = std::move(title); }
  void set_scale(std::string scale) { scale_ = std::move(scale); }
  void set_environment(BenchEnvironment env) { env_ = std::move(env); }

  const std::string& binary() const { return binary_; }
  const std::string& scale() const { return scale_; }

  // Creates (or returns) the series `name`. Columns are fixed on the
  // first call; the pointer stays valid for the report's lifetime.
  ReportSeries* AddSeries(const std::string& name,
                          std::vector<SeriesColumn> columns);

  size_t num_series() const { return series_.size(); }
  const ReportSeries& series(size_t i) const { return *series_[i]; }

  // Captures the metric snapshot and the frame-record totals of `t`.
  // Call once, after the run, while attached systems still live.
  void CaptureFrom(const Telemetry& t);

  const std::vector<FrameTotals>& frame_totals() const {
    return frame_totals_;
  }

  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

 private:
  std::string binary_;
  std::string title_;
  std::string scale_ = "default";
  BenchEnvironment env_;
  // unique_ptr for pointer stability: benches hold AddSeries' result
  // across further AddSeries calls.
  std::vector<std::unique_ptr<ReportSeries>> series_;
  MetricsSnapshot metrics_;
  std::vector<FrameTotals> frame_totals_;
};

// ---------------------------------------------------------------------
// Report diffing (the bench_compare tool and the `baseline` ctests).

struct CompareFinding {
  enum class Severity { kInfo, kWarn, kFail };
  Severity severity = Severity::kInfo;
  std::string where;    // "metrics", series name, "frame_totals", ...
  std::string message;
};

struct CompareResult {
  std::vector<CompareFinding> findings;
  uint64_t values_compared = 0;

  bool HasFailure() const;
  void Add(CompareFinding::Severity severity, std::string where,
           std::string message);
};

// Diffs two parsed BenchReport documents (`old_report` is the baseline).
// Every metric, frame total and series value must match exactly; nothing
// is exempt by name or column. Returns a finding list; HasFailure()
// decides the exit code.
// Invalid/mismatched documents report kFail findings rather than
// erroring out.
CompareResult CompareReports(const JsonValue& old_report,
                             const JsonValue& new_report);

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_BENCH_REPORT_H_
