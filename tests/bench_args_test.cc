#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace hdov::bench {
namespace {

BenchArgs Parse(std::vector<std::string> flags) {
  std::string binary = "bench";
  std::vector<char*> argv = {binary.data()};
  for (std::string& flag : flags) {
    argv.push_back(flag.data());
  }
  return ParseBenchArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgsTest, NumbersParseUpToUint32Max) {
  const BenchArgs args = Parse({"--threads=0", "--trace-sample=4294967295"});
  EXPECT_EQ(args.threads, 0u);
  EXPECT_EQ(args.trace_sample, UINT32_MAX);
  EXPECT_EQ(BenchThreads(), 0u);
  BenchThreads() = 1;  // Leave the process-wide default as found.
}

// strtoul reads "-1" as ULONG_MAX: --threads=-1 would ask for 4,294,967,295
// workers. A sign, a blank, or a value past 32 bits is not a number.
TEST(BenchArgsDeathTest, NumbersRejectSignsAndOverflow) {
  for (const char* flag :
       {"--threads=-1", "--threads=+1", "--threads= 1", "--threads=",
        "--threads=4294967296", "--threads=18446744073709551615",
        "--threads=99999999999999999999999", "--trace-sample=-1",
        "--trace-sample=1x"}) {
    EXPECT_EXIT(Parse({flag}), ::testing::ExitedWithCode(2),
                "needs a number")
        << flag;
  }
}

// The Prometheus exporter and the separate slow-frame dump are gone
// (captures ride in --flight-out); their flags must not be accepted
// silently.
TEST(BenchArgsDeathTest, RemovedOutputFlagsAreUnknown) {
  for (const char* flag : {"--metrics-out=x.prom", "--slowdump-out=x.slow"}) {
    EXPECT_EXIT(Parse({flag}), ::testing::ExitedWithCode(2), "unknown flag")
        << flag;
  }
}

// Spans ride in the --flight-out run dump and --trace-sample turns them
// on; the separate Chrome trace file and its flag are gone.
TEST(BenchArgsDeathTest, TraceOutIsUnknown) {
  EXPECT_EXIT(Parse({"--trace-out=x.json"}), ::testing::ExitedWithCode(2),
              "unknown flag");
}

TEST(BenchArgsTest, TraceSampleDefaultsToOff) {
  EXPECT_EQ(Parse({}).trace_sample, 0u);
  EXPECT_EQ(Parse({"--trace-sample=64"}).trace_sample, 64u);
}

}  // namespace
}  // namespace hdov::bench
