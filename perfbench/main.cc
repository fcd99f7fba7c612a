// perfbench: runs one benchmark workload and prints one JSON line with
// every metric it measured (end-to-end and per-layer), the op counts, the
// failed correctness checks and the input digest. run.py builds this
// binary, picks the metrics BENCHMARK.json declares and prints the
// benchmark's result line.
//
//   perfbench --workload query|walk|serve --seed N --seconds S
//             --trace 0|1 --out-dir DIR [--inputs-only]
//
// --inputs-only prints only the digest of the inputs the seed generates.
// A traced run also writes DIR/trace-<workload>-<seed>.json (Chrome
// trace-event format).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "ledger.h"
#include "workloads.h"

namespace {

// Op spans kept for the trace file (enough for a few seconds of ops).
constexpr size_t kMaxTraceOps = 50000;

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload query|walk|serve "
               "--seed N --seconds S --trace 0|1 --out-dir DIR "
               "[--inputs-only]\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool inputs_only = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inputs-only") {
      inputs_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
      if (!have_seed) {
        return Usage("--seed takes a whole number");
      }
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(config.seconds > 0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      config.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!perfbench::IsWorkload(config.workload) || !have_seed) {
    return Usage("--workload and --seed are required");
  }
  config.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

  if (inputs_only) {
    hdov::Result<uint64_t> digest = perfbench::InputsDigest(config);
    if (!digest.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   digest.status().ToString().c_str());
      return 1;
    }
    std::printf("{\"inputs_digest\": \"%016" PRIx64 "\"}\n", *digest);
    return 0;
  }

  perfbench::SpanLog spans(config.trace ? kMaxTraceOps : 0);
  perfbench::RunResult result;
  const hdov::Status s = perfbench::RunWorkload(config, &spans, &result);
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", s.ToString().c_str());
    return 1;
  }
  if (config.trace) {
    const std::string path = config.out_dir + "/trace-" + config.workload +
                             "-" + std::to_string(config.seed) + ".json";
    if (hdov::Status w = spans.WriteChromeTrace(path); !w.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", w.ToString().c_str());
      return 1;
    }
  }

  std::printf("{\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"threads\": %u, \"inputs_digest\": \"%016" PRIx64
              "\", \"failed_checks\": [",
              result.attempted, result.failed, config.threads,
              result.inputs_digest);
  for (size_t i = 0; i < result.failed_checks.size(); ++i) {
    std::printf(i == 0 ? "" : ", ");
    PrintJsonString(result.failed_checks[i]);
  }
  std::printf("], \"metrics\": {");
  const auto& metrics = result.metrics.all();
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf(i == 0 ? "" : ", ");
    PrintJsonString(metrics[i].name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metrics[i].value);
    PrintJsonString(metrics[i].unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
