// bench_compare: diff two bench-report JSON documents (the --json-out
// format written by every bench binary; see docs/telemetry.md).
//
//   bench_compare old.json new.json
//
// A report holds simulated values only: counters, per-figure series
// values and frame-total digests. They are deterministic, so every one is
// compared at zero tolerance — any drift is a behavior change and fails
// the comparison (exit 1). Wall-clock time is not in reports; perfbench/
// is its contract. The `baseline` ctests run this tool against
// bench/baselines/.
//
// Exit codes: 0 = match, 1 = drift found, 2 = usage or I/O error.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "telemetry/bench_report.h"
#include "telemetry/json.h"

namespace hdov::telemetry {
namespace {

int Usage() {
  std::fprintf(stderr, "usage: bench_compare old.json new.json\n");
  return 2;
}

Result<JsonValue> LoadReport(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(std::string("cannot open ") + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<JsonValue> doc = ParseJson(buffer.str());
  if (!doc.ok()) {
    return Status::InvalidArgument(std::string(path) + ": " +
                                   doc.status().ToString());
  }
  return doc;
}

const char* SeverityTag(CompareFinding::Severity severity) {
  switch (severity) {
    case CompareFinding::Severity::kFail: return "FAIL";
    case CompareFinding::Severity::kWarn: return "warn";
    case CompareFinding::Severity::kInfo: return "info";
  }
  return "?";
}

int RunCompare(int argc, char** argv) {
  const char* paths[2] = {nullptr, nullptr};
  int num_paths = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return Usage();
    } else if (num_paths < 2) {
      paths[num_paths++] = arg;
    } else {
      return Usage();
    }
  }
  if (num_paths != 2) {
    return Usage();
  }

  Result<JsonValue> old_doc = LoadReport(paths[0]);
  Result<JsonValue> new_doc = LoadReport(paths[1]);
  if (!old_doc.ok() || !new_doc.ok()) {
    const Status& s = old_doc.ok() ? new_doc.status() : old_doc.status();
    std::fprintf(stderr, "bench_compare: %s\n", s.ToString().c_str());
    return 2;
  }

  const CompareResult result = CompareReports(*old_doc, *new_doc);

  size_t fails = 0;
  size_t warns = 0;
  for (const CompareFinding& finding : result.findings) {
    if (finding.severity == CompareFinding::Severity::kFail) {
      ++fails;
    } else if (finding.severity == CompareFinding::Severity::kWarn) {
      ++warns;
    }
    std::printf("[%s] %s: %s\n", SeverityTag(finding.severity),
                finding.where.c_str(), finding.message.c_str());
  }
  std::printf(
      "\nbench_compare: %llu values compared, %zu failure(s), %zu"
      " warning(s)\n",
      static_cast<unsigned long long>(result.values_compared), fails, warns);
  if (fails == 0) {
    std::printf("PASS: no counter drift\n");
  }
  return fails == 0 ? 0 : 1;
}

}  // namespace
}  // namespace hdov::telemetry

int main(int argc, char** argv) {
  return hdov::telemetry::RunCompare(argc, argv);
}
