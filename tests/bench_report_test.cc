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

// A small but fully populated report, used by the build/round-trip and
// compare tests below. `latency_ms` fills the second series column and
// `lag_ms` a gauge named the way wall-clock gauges once were (".wall.").
BenchReport MakeReport(double io_pages, double latency_ms = 10.0,
                       double lag_ms = 10.0) {
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
      {SeriesColumn{"io_pages"}, SeriesColumn{"latency_ms"}});
  series->rows.push_back({"row0", {io_pages, latency_ms}});
  series->rows.push_back({"row1", {io_pages * 2, latency_ms * 2}});

  Telemetry t;
  t.metrics().GetCounter("demo.reads")->Add(
      static_cast<uint64_t>(io_pages));
  t.metrics().GetGauge("demo.wall.lag_ms")->Set(lag_ms);
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
  BenchReport report = MakeReport(100.0);
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
  EXPECT_EQ(s.Find("columns")->items[1].Find("name")->string, "latency_ms");
  EXPECT_EQ(s.Find("columns")->items[1].members.size(), 1u);  // Name only.
  ASSERT_EQ(s.Find("rows")->items.size(), 2u);
  EXPECT_EQ(s.Find("rows")->items[0].Find("label")->string, "row0");
  EXPECT_DOUBLE_EQ(s.Find("rows")->items[0].Find("values")->items[0].number,
                   100.0);

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
  ReportSeries* first = report.AddSeries("a", {SeriesColumn{"x"}});
  for (int i = 0; i < 64; ++i) {
    // Appended, not `"s" + std::to_string(i)`: g++ 12 at -O3 warns a false
    // -Wrestrict on that operator+.
    std::string name = "s";
    name += std::to_string(i);
    report.AddSeries(name, {SeriesColumn{"x"}});
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
  JsonValue old_doc = ParseReport(MakeReport(100.0));
  JsonValue new_doc = ParseReport(MakeReport(100.0));
  CompareResult result = CompareReports(old_doc, new_doc);
  EXPECT_FALSE(result.HasFailure());
  EXPECT_EQ(CountSeverity(result, CompareFinding::Severity::kFail), 0u);
  EXPECT_GT(result.values_compared, 0u);
}

TEST(CompareReportsTest, CounterDriftFails) {
  JsonValue old_doc = ParseReport(MakeReport(100.0));
  JsonValue new_doc = ParseReport(MakeReport(101.0));
  CompareResult result = CompareReports(old_doc, new_doc);
  EXPECT_TRUE(result.HasFailure());
}

TEST(CompareReportsTest, NothingIsExempt) {
  // No name or column escapes the exact comparison: a gauge whose name
  // contains ".wall." fails on its own, and so does any series column.
  const JsonValue old_doc = ParseReport(MakeReport(100.0));
  const CompareResult lag =
      CompareReports(old_doc, ParseReport(MakeReport(100.0, 10.0, 10.5)));
  EXPECT_TRUE(lag.HasFailure());
  EXPECT_EQ(CountSeverity(lag, CompareFinding::Severity::kFail), 1u);
  const CompareResult column =
      CompareReports(old_doc, ParseReport(MakeReport(100.0, 10.5)));
  EXPECT_TRUE(column.HasFailure());
  EXPECT_EQ(CountSeverity(column, CompareFinding::Severity::kFail), 2u);
}

TEST(CompareReportsTest, BinaryMismatchFailsEarly) {
  BenchReport other = MakeReport(100.0);
  other.set_binary("bench_other");
  JsonValue old_doc = ParseReport(MakeReport(100.0));
  JsonValue new_doc = ParseReport(other);
  CompareResult result = CompareReports(old_doc, new_doc);
  EXPECT_TRUE(result.HasFailure());
}

TEST(CompareReportsTest, MissingMetricFailsNewMetricWarns) {
  JsonValue old_doc = ParseReport(MakeReport(100.0));
  BenchReport renamed = MakeReport(100.0);
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
