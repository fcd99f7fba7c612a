// Exposition: point-in-time views over a MetricsRegistry for live
// consumption — the complement of the end-of-run JSON snapshot. Three
// pieces:
//
//   - ExpositionText: a MetricsSnapshot rendered in the Prometheus text
//     format (counters/gauges as single samples, histograms as cumulative
//     _bucket/_sum/_count series), so any scrape-format tooling can parse
//     a run's metrics without bespoke JSON handling;
//   - SnapshotDelta: the difference between two snapshots of the same
//     registry, turning monotone counters into interval deltas and rates;
//   - ExpositionLog: the periodic exporter behind the benches'
//     --metrics-out flag (a sample every 100 frames), appending one
//     exposition block (plus rate comments) per sample to a text file.
//
// Everything here only *reads* registry state: attaching an exporter can
// never move a simulated counter.

#ifndef HDOV_TELEMETRY_EXPOSITION_H_
#define HDOV_TELEMETRY_EXPOSITION_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "telemetry/bench_report.h"
#include "telemetry/metrics.h"

namespace hdov::telemetry {

// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; the registry's
// dotted names map dots (and any other invalid byte) to underscores.
std::string SanitizeMetricName(std::string_view name);

// The snapshot in Prometheus text format. Views expose no kind of their
// own and are emitted as gauges.
std::string ExpositionText(const MetricsSnapshot& snapshot);

// The subset of `snapshot` whose names start with `prefix` (sample order
// preserved). Lets one captured snapshot serve both a full export and a
// filtered view without re-reading the registry.
MetricsSnapshot FilterSnapshot(const MetricsSnapshot& snapshot,
                               std::string_view prefix);

// One metric's change across an interval.
struct MetricDelta {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double previous = 0.0;
  double current = 0.0;
  double delta = 0.0;         // current - previous.
  double rate_per_sec = 0.0;  // delta / interval; 0 when interval is 0.
  // Histogram intervals: observation-count and sum deltas.
  uint64_t count_delta = 0;
  double sum_delta = 0.0;
};

// The interval between two snapshots of the same registry. Metrics only
// present in `later` (registered mid-interval) get previous = 0; metrics
// that vanished are omitted.
struct SnapshotDelta {
  double interval_ms = 0.0;
  std::vector<MetricDelta> metrics;

  static SnapshotDelta Between(const MetricsSnapshot& earlier,
                               const MetricsSnapshot& later,
                               double interval_ms);
};

// Appends one exposition block per Sample() call to `path` (truncated on
// the first sample): a '# hdov' header comment, the full exposition text,
// and '# rate' comment lines carrying the interval rates of every counter
// that moved. The result is a concatenation of scrapes — each block is
// valid Prometheus text on its own.
class ExpositionLog {
 public:
  explicit ExpositionLog(std::string path) : path_(std::move(path)) {}

  const std::string& path() const { return path_; }
  uint64_t samples_written() const { return samples_written_; }

  Status Sample(const MetricsSnapshot& snapshot, std::string_view label);

 private:
  std::string path_;
  std::ofstream out_;
  WallTimer interval_timer_;
  MetricsSnapshot previous_;
  uint64_t samples_written_ = 0;
};

}  // namespace hdov::telemetry

#endif  // HDOV_TELEMETRY_EXPOSITION_H_
