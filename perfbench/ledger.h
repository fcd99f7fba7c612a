// The benchmark's own measurement ledger: named metrics with units, an
// in-memory span log written out as a Chrome trace at the end of a run,
// and the small statistics helpers every workload shares. Nothing here
// touches the program under test; spans are recorded around the public
// calls the benchmark makes.

#ifndef HDOV_PERFBENCH_LEDGER_H_
#define HDOV_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "telemetry/trace_context.h"

namespace perfbench {

// steady_clock nanoseconds.
uint64_t NowNs();

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Zero when `den` is zero, so ratios of absent layers read 0.
double Ratio(double num, double den);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Metrics in emission order. Set() overwrites a name already present.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Spans kept in memory for the whole run. Phase spans nest by parent
// index; op spans carry the op's per-stage self times (see
// telemetry/trace_context.h) as arguments. Op spans beyond `max_ops` are
// dropped, which bounds the trace file.
class SpanLog {
 public:
  explicit SpanLog(size_t max_ops) : max_ops_(max_ops) {}

  // Opens a phase span now; returns its id for Close() and as a parent.
  int Open(const std::string& name, int parent = -1);
  void Close(int id);
  double DurationMs(int id) const;
  // Summed duration of the closed spans called `name` directly under
  // `parent`; 0 when there are none.
  double ChildMs(int parent, const std::string& name) const;

  void AddOp(const char* name, uint32_t lane, uint64_t start_ns,
             uint64_t end_ns, const hdov::telemetry::StageBreakdown& stages);

  hdov::Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Phase {
    std::string name;
    int parent = -1;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };
  struct Op {
    const char* name = "";
    uint32_t lane = 0;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    hdov::telemetry::StageBreakdown stages;
  };

  size_t max_ops_;
  std::vector<Phase> phases_;
  std::vector<Op> ops_;
};

// RAII phase span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int parent = -1)
      : log_(log), id_(log->Open(name, parent)) {}
  ~ScopedSpan() { log_->Close(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// A fixed kernel of hash-map lookups and a sort, timed in short bursts
// between a run's ops. The shared host this benchmark was first measured
// on changed its speed by up to 2x from minute to minute, with no steal
// time and nothing else in the VM. The kernel's time tracks that drift,
// so the bounded wall metrics are reported at a fixed reference speed:
// time × kReferenceMs / (median burst time of the same phase).
class Calibration {
 public:
  // Burst time of the kernel on the uncontended 4-vCPU, 2.0 GHz VM the
  // first trajectory point was recorded on.
  static constexpr double kReferenceMs = 0.75;

  Calibration();

  // Runs the kernel once; returns its wall time in ms.
  double BurstMs();

 private:
  std::unordered_map<uint64_t, uint64_t> table_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> sort_buf_;
  uint64_t state_ = 1;
  size_t next_ = 0;
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // HDOV_PERFBENCH_LEDGER_H_
