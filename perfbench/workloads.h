// The three benchmark workloads (query, walk, serve) and RunWorkload(),
// which runs one of them: set-up repeated and timed, an untimed reference pass
// that yields the simulated metrics and runs the correctness checks, then
// a closed-loop timed phase of --seconds. README.md says why each
// workload exists and which layer metric should move which end-to-end
// metric.

#ifndef HDOV_PERFBENCH_WORKLOADS_H_
#define HDOV_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "ledger.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  uint32_t threads = 4;
};

struct RunResult {
  MetricSet metrics;  // End-to-end and per-layer, as measured.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failed_checks;
  uint64_t inputs_digest = 0;
};

bool IsWorkload(const std::string& name);

// Runs one workload end to end. A non-OK status means the run could not
// be carried out at all; failed ops and checks land in `out`.
hdov::Status RunWorkload(const RunConfig& config, SpanLog* spans,
                         RunResult* out);

// Digest of the inputs a run with `config` generates (world city and the
// op list), without building visibility or running anything.
hdov::Result<uint64_t> InputsDigest(const RunConfig& config);

}  // namespace perfbench

#endif  // HDOV_PERFBENCH_WORKLOADS_H_
