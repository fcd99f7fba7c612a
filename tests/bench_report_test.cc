#include "telemetry/bench_report.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "telemetry/json.h"
#include "telemetry/telemetry.h"

namespace hdov {
namespace {

using telemetry::BenchEnvironment;
using telemetry::BenchReport;
using telemetry::CompareFinding;
using telemetry::CompareReports;
using telemetry::CompareResult;
using telemetry::JsonValue;
using telemetry::ParseJson;
using telemetry::ReportSeries;
using telemetry::SeriesColumn;
using telemetry::Telemetry;
using telemetry::TimingStats;

TEST(TimingStatsTest, PercentilesInterpolate) {
  TimingStats empty = TimingStats::From({});
  EXPECT_EQ(empty.count, 0u);
  TimingStats one = TimingStats::From({4.0});
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.min, 4.0);
  EXPECT_DOUBLE_EQ(one.median, 4.0);
  EXPECT_DOUBLE_EQ(one.p95, 4.0);
  // Unsorted input; 1..5 -> min 1, mean 3, median 3, p95 = 4.8.
  TimingStats five = TimingStats::From({5.0, 3.0, 1.0, 4.0, 2.0});
  EXPECT_EQ(five.count, 5u);
  EXPECT_DOUBLE_EQ(five.min, 1.0);
  EXPECT_DOUBLE_EQ(five.mean, 3.0);
  EXPECT_DOUBLE_EQ(five.median, 3.0);
  EXPECT_NEAR(five.p95, 4.8, 1e-9);
}

// A small but fully populated report, used by the build/round-trip and
// compare tests below.
BenchReport MakeReport(double io_pages, double wall_ms) {
  BenchReport report;
  report.set_binary("bench_demo");
  report.set_title("Demo figure");
  report.set_scale("default");
  BenchEnvironment env;
  env.git_revision = "abc1234";
  env.cpu_count = 4;
  env.threads = 2;
  report.set_environment(env);

  ReportSeries* series = report.AddSeries(
      "demo.series",
      {SeriesColumn{"io_pages", false}, SeriesColumn{"build_ms", true}});
  series->rows.push_back({"row0", {io_pages, wall_ms}});
  series->rows.push_back({"row1", {io_pages * 2, wall_ms * 2}});

  report.RecordTiming("phase", wall_ms);
  report.RecordTiming("phase", wall_ms * 3);

  Telemetry t;
  t.metrics().GetCounter("demo.reads")->Add(
      static_cast<uint64_t>(io_pages));
  t.metrics().GetGauge("demo.wall.latency_ms")->Set(wall_ms);
  telemetry::FrameRecord frame;
  frame.system = "demo";
  frame.kind = "query";
  frame.io_pages = static_cast<uint64_t>(io_pages);
  frame.query_time_ms = 1.5;
  t.RecordFrame(frame);
  t.RecordFrame(frame);
  report.CaptureFrom(t);
  return report;
}

JsonValue ParseReport(const BenchReport& report) {
  Result<JsonValue> parsed = ParseJson(report.ToJson());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : JsonValue{};
}

TEST(BenchReportTest, ToJsonRoundTrips) {
  BenchReport report = MakeReport(100.0, 10.0);
  JsonValue doc = ParseReport(report);
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.Find("version")->number, 1.0);
  EXPECT_EQ(doc.Find("binary")->string, "bench_demo");
  EXPECT_EQ(doc.Find("title")->string, "Demo figure");
  EXPECT_EQ(doc.Find("scale")->string, "default");
  const JsonValue* env = doc.Find("environment");
  ASSERT_NE(env, nullptr);
  EXPECT_EQ(env->Find("git_revision")->string, "abc1234");
  EXPECT_DOUBLE_EQ(env->Find("cpu_count")->number, 4.0);
  EXPECT_DOUBLE_EQ(env->Find("threads")->number, 2.0);

  const JsonValue* series = doc.Find("series");
  ASSERT_TRUE(series != nullptr && series->is_array());
  ASSERT_EQ(series->items.size(), 1u);
  const JsonValue& s = series->items[0];
  EXPECT_EQ(s.Find("name")->string, "demo.series");
  ASSERT_EQ(s.Find("columns")->items.size(), 2u);
  EXPECT_EQ(s.Find("columns")->items[1].Find("name")->string, "build_ms");
  EXPECT_TRUE(s.Find("columns")->items[1].Find("wall")->boolean);
  ASSERT_EQ(s.Find("rows")->items.size(), 2u);
  EXPECT_EQ(s.Find("rows")->items[0].Find("label")->string, "row0");
  EXPECT_DOUBLE_EQ(s.Find("rows")->items[0].Find("values")->items[0].number,
                   100.0);

  const JsonValue* timings = doc.Find("timings");
  ASSERT_TRUE(timings != nullptr && timings->is_array());
  ASSERT_EQ(timings->items.size(), 1u);
  EXPECT_EQ(timings->items[0].Find("name")->string, "phase");
  EXPECT_DOUBLE_EQ(timings->items[0].Find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(timings->items[0].Find("min_ms")->number, 10.0);
  EXPECT_DOUBLE_EQ(timings->items[0].Find("median_ms")->number, 20.0);

  const JsonValue* metrics = doc.Find("metrics");
  ASSERT_TRUE(metrics != nullptr && metrics->is_array());
  EXPECT_EQ(metrics->items[0].Find("name")->string, "demo.reads");

  const JsonValue* totals = doc.Find("frame_totals");
  ASSERT_TRUE(totals != nullptr && totals->is_array());
  ASSERT_EQ(totals->items.size(), 1u);
  EXPECT_EQ(totals->items[0].Find("system")->string, "demo");
  EXPECT_EQ(totals->items[0].Find("kind")->string, "query");
  EXPECT_DOUBLE_EQ(totals->items[0].Find("frames")->number, 2.0);
  EXPECT_DOUBLE_EQ(totals->items[0].Find("io_pages")->number, 200.0);
  EXPECT_DOUBLE_EQ(totals->items[0].Find("query_time_ms")->number, 3.0);
}

TEST(BenchReportTest, AddSeriesReturnsStablePointers) {
  BenchReport report;
  ReportSeries* first = report.AddSeries("a", {SeriesColumn{"x", false}});
  for (int i = 0; i < 64; ++i) {
    report.AddSeries("s" + std::to_string(i), {SeriesColumn{"x", false}});
  }
  first->rows.push_back({"row", {1.0}});  // Pointer must still be valid.
  EXPECT_EQ(report.AddSeries("a", {}), first);  // Find-or-create.
  EXPECT_EQ(report.num_series(), 65u);
  EXPECT_EQ(report.series(0).rows.size(), 1u);
}

size_t CountSeverity(const CompareResult& result,
                     CompareFinding::Severity severity) {
  size_t n = 0;
  for (const CompareFinding& f : result.findings) {
    if (f.severity == severity) {
      ++n;
    }
  }
  return n;
}

TEST(CompareReportsTest, IdenticalReportsPass) {
  JsonValue old_doc = ParseReport(MakeReport(100.0, 10.0));
  JsonValue new_doc = ParseReport(MakeReport(100.0, 10.0));
  CompareResult result = CompareReports(old_doc, new_doc);
  EXPECT_FALSE(result.HasFailure());
  EXPECT_EQ(CountSeverity(result, CompareFinding::Severity::kFail), 0u);
  EXPECT_GT(result.values_compared, 0u);
}

TEST(CompareReportsTest, CounterDriftFails) {
  JsonValue old_doc = ParseReport(MakeReport(100.0, 10.0));
  JsonValue new_doc = ParseReport(MakeReport(101.0, 10.0));
  CompareResult result = CompareReports(old_doc, new_doc);
  EXPECT_TRUE(result.HasFailure());
}

TEST(CompareReportsTest, WallValuesAreNeverCompared) {
  JsonValue old_doc = ParseReport(MakeReport(100.0, 10.0));
  // 10x on the wall column, the `.wall.` gauge and the timings: passes,
  // and none of them counts as a compared value.
  JsonValue slower = ParseReport(MakeReport(100.0, 100.0));
  CompareResult result = CompareReports(old_doc, slower);
  EXPECT_FALSE(result.HasFailure());
  EXPECT_EQ(result.values_compared,
            CompareReports(old_doc, old_doc).values_compared);
  // A counter that drifts by its last unit (100 -> 101 pages) still
  // fails next to the same wall-clock change.
  JsonValue drifted = ParseReport(MakeReport(101.0, 100.0));
  EXPECT_TRUE(CompareReports(old_doc, drifted).HasFailure());
}

TEST(CompareReportsTest, BinaryMismatchFailsEarly) {
  BenchReport other = MakeReport(100.0, 10.0);
  other.set_binary("bench_other");
  JsonValue old_doc = ParseReport(MakeReport(100.0, 10.0));
  JsonValue new_doc = ParseReport(other);
  CompareResult result = CompareReports(old_doc, new_doc);
  EXPECT_TRUE(result.HasFailure());
}

TEST(CompareReportsTest, MissingMetricFailsNewMetricWarns) {
  JsonValue old_doc = ParseReport(MakeReport(100.0, 10.0));
  BenchReport renamed = MakeReport(100.0, 10.0);
  // Rebuild with an extra metric only in the new report.
  Telemetry t;
  t.metrics().GetCounter("demo.reads")->Add(100);
  t.metrics().GetCounter("demo.extra")->Add(1);
  renamed.CaptureFrom(t);
  JsonValue new_doc = ParseReport(renamed);
  CompareResult result = CompareReports(old_doc, new_doc);
  // Old had frame totals under "demo"; renamed's second CaptureFrom holds
  // no frames -> missing totals fail too; at minimum the new-only metric
  // warns and nothing crashes.
  EXPECT_GE(CountSeverity(result, CompareFinding::Severity::kWarn), 1u);

  // Reverse direction: a metric present in old but missing in new fails.
  CompareResult reverse =
      CompareReports(new_doc, old_doc);
  EXPECT_TRUE(reverse.HasFailure());
}

}  // namespace
}  // namespace hdov
