#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/page_device.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace hdov {
namespace {

using telemetry::Counter;
using telemetry::ExponentialBuckets;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::JsonValue;
using telemetry::LinearBuckets;
using telemetry::MetricKind;
using telemetry::MetricSample;
using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;
using telemetry::ParseJson;
using telemetry::DecodeSpanForest;
using telemetry::ScopedSpan;
using telemetry::SpanForest;
using telemetry::Telemetry;
using telemetry::TraceRecorder;

TEST(CounterTest, IncrementAddReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(HistogramTest, BucketPlacement) {
  // Buckets: [-inf, 1], (1, 2], (2, 4], (4, +inf).
  Histogram h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.num_buckets(), 4u);
  h.Observe(0.5);   // bucket 0
  h.Observe(1.0);   // bucket 0 (upper bound is inclusive)
  h.Observe(1.5);   // bucket 1
  h.Observe(4.0);   // bucket 2
  h.Observe(9.0);   // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 16.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 3.2);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket_count(0), 0u);
}

TEST(HistogramTest, QuantileInterpolates) {
  Histogram h({10.0, 20.0});
  for (int i = 0; i < 10; ++i) {
    h.Observe(5.0);  // All in bucket 0: [0, 10] after interpolation.
  }
  // Median of a bucket assumed uniform on (0, 10] -> 5.
  EXPECT_NEAR(h.Quantile(0.5), 5.0, 1e-9);
  EXPECT_NEAR(h.Quantile(1.0), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(Histogram({1.0}).Quantile(0.5), 0.0);  // Empty.
}

TEST(HistogramTest, BucketGenerators) {
  EXPECT_EQ(ExponentialBuckets(1.0, 2.0, 4),
            (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_EQ(LinearBuckets(2.0, 0.5, 3),
            (std::vector<double>{2.0, 2.5, 3.0}));
}

TEST(MetricsRegistryTest, CreateOrGetAndKindMismatch) {
  MetricsRegistry m;
  Counter* c = m.GetCounter("a.count");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(m.GetCounter("a.count"), c);  // Same pointer on re-get.
  EXPECT_EQ(m.GetGauge("a.count"), nullptr);  // Kind mismatch.
  EXPECT_EQ(m.GetHistogram("a.count", {1.0}), nullptr);
  EXPECT_NE(m.GetGauge("a.gauge"), nullptr);
  EXPECT_NE(m.GetHistogram("a.hist", {1.0, 2.0}), nullptr);
  EXPECT_EQ(m.size(), 3u);
}

TEST(MetricsRegistryTest, ViewsReadLiveSources) {
  MetricsRegistry m;
  uint64_t source = 7;
  m.RegisterView("io.reads", [&source] {
    return static_cast<double>(source);
  });
  EXPECT_DOUBLE_EQ(m.Snapshot().Find("io.reads")->value, 7.0);
  source = 19;
  EXPECT_DOUBLE_EQ(m.Snapshot().Find("io.reads")->value, 19.0);
  // ResetValues leaves views alone.
  m.ResetValues();
  EXPECT_DOUBLE_EQ(m.Snapshot().Find("io.reads")->value, 19.0);
}

TEST(MetricsRegistryTest, UnregisterPrefix) {
  MetricsRegistry m;
  m.GetCounter("sys.a");
  m.GetCounter("sys.b");
  m.GetCounter("other.c");
  m.UnregisterPrefix("sys.");
  EXPECT_FALSE(m.Contains("sys.a"));
  EXPECT_FALSE(m.Contains("sys.b"));
  EXPECT_TRUE(m.Contains("other.c"));
  EXPECT_EQ(m.size(), 1u);
  // Re-registering after removal starts fresh.
  EXPECT_EQ(m.GetCounter("sys.a")->value(), 0u);
}

TEST(MetricsRegistryTest, ResetValuesZeroesOwnedMetrics) {
  MetricsRegistry m;
  m.GetCounter("c")->Add(5);
  m.GetGauge("g")->Set(2.5);
  m.GetHistogram("h", {1.0})->Observe(0.5);
  m.ResetValues();
  EXPECT_EQ(m.GetCounter("c")->value(), 0u);
  EXPECT_DOUBLE_EQ(m.GetGauge("g")->value(), 0.0);
  EXPECT_EQ(m.GetHistogram("h", {})->count(), 0u);
}

TEST(MetricsRegistryTest, SnapshotJsonParses) {
  MetricsRegistry m;
  m.GetCounter("c")->Add(3);
  m.GetHistogram("h", {1.0, 2.0})->Observe(1.5);
  MetricsSnapshot snap = m.Snapshot();
  Result<JsonValue> parsed = ParseJson(snap.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->is_array());
  ASSERT_EQ(parsed->items.size(), 2u);
  const JsonValue& counter = parsed->items[0];
  EXPECT_EQ(counter.Find("name")->string, "c");
  EXPECT_EQ(counter.Find("kind")->string, "counter");
  EXPECT_DOUBLE_EQ(counter.Find("value")->number, 3.0);
  const JsonValue& hist = parsed->items[1];
  EXPECT_EQ(hist.Find("kind")->string, "histogram");
  EXPECT_DOUBLE_EQ(hist.Find("count")->number, 1.0);
  ASSERT_EQ(hist.Find("buckets")->items.size(), 3u);
  EXPECT_DOUBLE_EQ(hist.Find("buckets")->items[1].number, 1.0);
}

TEST(DeviceViewsTest, PageDeviceAndBufferPoolRegister) {
  MetricsRegistry m;
  PageDevice device;
  device.RegisterWith(&m, "t.io.disk");
  PageId p = device.Allocate();
  ASSERT_TRUE(device.Write(p, "x").ok());
  std::string data;
  ASSERT_TRUE(device.Read(p, &data).ok());
  ASSERT_TRUE(device.Read(p, &data).ok());
  EXPECT_DOUBLE_EQ(m.Snapshot().Find("t.io.disk.page_reads")->value, 2.0);

  BufferPool pool(&device, 4);
  pool.RegisterWith(&m, "t.cache");
  ASSERT_TRUE(pool.Get(p).ok());
  ASSERT_TRUE(pool.Get(p).ok());  // Second read hits.
  MetricsSnapshot snap = m.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Find("t.cache.hits")->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.Find("t.cache.misses")->value, 1.0);
  EXPECT_DOUBLE_EQ(snap.Find("t.cache.hit_rate")->value, 0.5);
}

TEST(TraceRecorderTest, SpanNesting) {
  TraceRecorder rec;
  int32_t root = rec.BeginSpan("search");
  int32_t node = rec.BeginSpan("node");
  int32_t prune = rec.BeginSpan("prune");
  rec.AddAttr(prune, "dov", 0.25);
  rec.EndSpan(prune);
  rec.EndSpan(node);
  rec.EndSpan(root);
  ASSERT_EQ(rec.num_spans(), 3u);
  EXPECT_EQ(rec.open_depth(), 0u);
  const SpanForest forest = DecodeSpanForest(rec.dump());
  ASSERT_EQ(forest.spans.size(), 3u);
  EXPECT_EQ(forest.spans[0].name, "search");
  EXPECT_EQ(forest.spans[0].parent, TraceRecorder::kNoSpan);
  EXPECT_EQ(forest.spans[1].parent, root);
  EXPECT_EQ(forest.spans[2].parent, node);
  EXPECT_EQ(forest.spans[2].name, "prune");
  EXPECT_TRUE(forest.spans[2].closed);
  EXPECT_DOUBLE_EQ(forest.spans[2].NumAttrOr("dov", -1.0), 0.25);
  EXPECT_DOUBLE_EQ(forest.spans[2].NumAttrOr("absent", -1.0), -1.0);
}

TEST(TraceRecorderTest, DisabledRecorderIsFree) {
  TraceRecorder rec;
  rec.set_enabled(false);
  int32_t id = rec.BeginSpan("search");
  EXPECT_EQ(id, TraceRecorder::kNoSpan);
  rec.AddAttr(id, "k", 1.0);  // All no-ops on kNoSpan.
  rec.EndSpan(id);
  EXPECT_EQ(rec.num_spans(), 0u);
  EXPECT_TRUE(rec.dump().events.empty());
}

TEST(TraceRecorderTest, EndSpanClosesLeakedChildren) {
  TraceRecorder rec;
  int32_t root = rec.BeginSpan("root");
  rec.BeginSpan("leaked");
  rec.EndSpan(root);  // Must close the still-open child too.
  EXPECT_EQ(rec.open_depth(), 0u);
  const SpanForest forest = DecodeSpanForest(rec.dump());
  ASSERT_EQ(forest.spans.size(), 2u);
  EXPECT_TRUE(forest.spans[0].closed);
  EXPECT_TRUE(forest.spans[1].closed);
  EXPECT_EQ(forest.spans[1].parent, root);
}

TEST(TraceRecorderTest, ScopedSpanToleratesNullRecorder) {
  ScopedSpan null_span(nullptr, "noop");
  null_span.Attr("k", 1.0);
  EXPECT_EQ(null_span.id(), TraceRecorder::kNoSpan);

  TraceRecorder rec;
  {
    ScopedSpan span(&rec, "scoped");
    span.Attr("k", 2.0);
    span.Attr("s", "text");
  }
  const SpanForest forest = DecodeSpanForest(rec.dump());
  ASSERT_EQ(forest.spans.size(), 1u);
  EXPECT_TRUE(forest.spans[0].closed);
  EXPECT_DOUBLE_EQ(forest.spans[0].NumAttrOr("k", -1.0), 2.0);
  ASSERT_NE(forest.spans[0].StrAttr("s"), nullptr);
  EXPECT_EQ(*forest.spans[0].StrAttr("s"), "text");
}

TEST(TraceRecorderTest, NamesSurviveAFullGlobalNameTable) {
  // A trace's names live in its own dump, so a process whose flight name
  // table is full (here: filled on purpose) still decodes every span
  // name, attribute key and string value. Each ctest case runs in its own
  // process, so the filled table cannot leak into other tests.
  for (size_t i = 0; telemetry::FlightNameCount() < telemetry::kMaxFlightNames;
       ++i) {
    telemetry::FlightInternName("filler-" + std::to_string(i));
  }
  ASSERT_EQ(telemetry::FlightInternName("a-name-past-the-cap"), 0u);

  TraceRecorder rec;
  {
    ScopedSpan search(&rec, "search-past-cap");
    search.Attr("store-past-cap", "vertical-past-cap");
    ScopedSpan node(&rec, "node-past-cap");
    node.Attr("dov-past-cap", 0.5);
  }
  const SpanForest forest = DecodeSpanForest(rec.dump());
  ASSERT_EQ(forest.spans.size(), 2u);
  EXPECT_EQ(forest.spans[0].name, "search-past-cap");
  ASSERT_NE(forest.spans[0].StrAttr("store-past-cap"), nullptr);
  EXPECT_EQ(*forest.spans[0].StrAttr("store-past-cap"), "vertical-past-cap");
  EXPECT_EQ(forest.spans[1].name, "node-past-cap");
  EXPECT_DOUBLE_EQ(forest.spans[1].NumAttrOr("dov-past-cap", -1.0), 0.5);
  EXPECT_EQ(rec.dump().names_dropped, 0u);
}

TEST(CounterTest, ConcurrentIncrementsLoseNothing) {
  Counter counter;
  Gauge gauge;
  const int kThreads = 8;
  const int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &gauge] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        gauge.Set(1.0);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter.value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.0);
}

TEST(HistogramTest, ConcurrentObservesLoseNothing) {
  Histogram hist(LinearBuckets(0.0, 10.0, 4));
  const int kThreads = 4;
  const int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Observe(static_cast<double>(t * 10));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(TraceRecorderTest, JsonTreeShape) {
  TraceRecorder rec;
  int32_t root = rec.BeginSpan("search");
  rec.AddAttr(root, "eta", 0.001);
  int32_t node = rec.BeginSpan("node");
  rec.EndSpan(node);
  rec.EndSpan(root);
  Result<JsonValue> parsed =
      ParseJson(DecodeSpanForest(rec.dump()).ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->items.size(), 1u);
  const JsonValue& tree = parsed->items[0];
  EXPECT_EQ(tree.Find("name")->string, "search");
  EXPECT_DOUBLE_EQ(tree.Find("attrs")->Find("eta")->number, 0.001);
  ASSERT_TRUE(tree.Find("children")->is_array());
  EXPECT_EQ(tree.Find("children")->items[0].Find("name")->string, "node");
}

TEST(JsonTest, StringEscaping) {
  std::string out;
  telemetry::AppendJsonString(&out, "a\"b\\c\n\t\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\\u0001\"");
  Result<JsonValue> parsed = ParseJson(out);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->string, "a\"b\\c\n\t\x01");
}

TEST(JsonTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseJson("{} extra").ok());
  EXPECT_FALSE(ParseJson("[1, 2").ok());
  EXPECT_TRUE(ParseJson("  {\"a\": [1, true, null]}  ").ok());
}

TEST(JsonTest, Utf8PassesThroughUnescaped) {
  // Multi-byte UTF-8 is not a control character; the writer must emit it
  // verbatim and the parser must hand it back untouched.
  const std::string text = "caf\xc3\xa9 \xe6\xbc\xa2\xe5\xad\x97";
  std::string out;
  telemetry::AppendJsonString(&out, text);
  EXPECT_EQ(out, "\"" + text + "\"");
  Result<JsonValue> parsed = ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->string, text);
}

TEST(JsonTest, ControlCharactersEscapeAsUnicode) {
  std::string out;
  telemetry::AppendJsonString(&out, std::string("\x00\x1f\x7f", 3));
  // 0x00 and 0x1f are control chars -> \u00xx; 0x7f is not < 0x20.
  EXPECT_EQ(out, "\"\\u0000\\u001f\x7f\"");
  Result<JsonValue> parsed = ParseJson(out);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->string, std::string("\x00\x1f\x7f", 3));
}

TEST(JsonTest, UnicodeEscapeRoundTrip) {
  // \uXXXX decodes to UTF-8 across the 1-, 2- and 3-byte ranges.
  Result<JsonValue> ascii = ParseJson("\"\\u0041\"");
  ASSERT_TRUE(ascii.ok());
  EXPECT_EQ(ascii->string, "A");
  Result<JsonValue> two_byte = ParseJson("\"\\u00e9\"");
  ASSERT_TRUE(two_byte.ok());
  EXPECT_EQ(two_byte->string, "\xc3\xa9");
  Result<JsonValue> three_byte = ParseJson("\"\\u6f22\"");
  ASSERT_TRUE(three_byte.ok());
  EXPECT_EQ(three_byte->string, "\xe6\xbc\xa2");
  // Upper-case hex digits are accepted too.
  Result<JsonValue> upper = ParseJson("\"\\u00E9\"");
  ASSERT_TRUE(upper.ok());
  EXPECT_EQ(upper->string, "\xc3\xa9");
  // Writer-escaped control characters survive a full round trip.
  std::string written;
  telemetry::AppendJsonString(&written, "\x02");
  Result<JsonValue> back = ParseJson(written);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->string, "\x02");
}

TEST(JsonTest, ParseErrorPaths) {
  Result<JsonValue> truncated = ParseJson("\"\\u00");
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().ToString().find("truncated unicode escape"),
            std::string::npos);
  Result<JsonValue> bad_hex = ParseJson("\"\\u00zz\"");
  ASSERT_FALSE(bad_hex.ok());
  EXPECT_NE(bad_hex.status().ToString().find("invalid unicode escape"),
            std::string::npos);
  Result<JsonValue> bad_escape = ParseJson("\"\\q\"");
  ASSERT_FALSE(bad_escape.ok());
  EXPECT_NE(bad_escape.status().ToString().find("invalid escape"),
            std::string::npos);
}

TEST(HistogramTest, SnapshotCarriesPercentiles) {
  MetricsRegistry m;
  Histogram* h = m.GetHistogram("lat", LinearBuckets(10.0, 10.0, 10));
  for (int i = 1; i <= 100; ++i) {
    h->Observe(static_cast<double>(i));  // Uniform 1..100.
  }
  // Bind the snapshot so `sample` does not dangle into a temporary.
  MetricsSnapshot snap = m.Snapshot();
  const MetricSample* sample = snap.Find("lat");
  ASSERT_NE(sample, nullptr);
  EXPECT_NEAR(sample->p50, h->Quantile(0.50), 1e-9);
  EXPECT_NEAR(sample->p90, h->Quantile(0.90), 1e-9);
  EXPECT_NEAR(sample->p99, h->Quantile(0.99), 1e-9);
  // Uniform data: the interpolated percentiles sit near their ranks.
  EXPECT_NEAR(sample->p50, 50.0, 10.0);
  EXPECT_NEAR(sample->p90, 90.0, 10.0);
  // And they serialize.
  Result<JsonValue> parsed = ParseJson(m.Snapshot().ToJson());
  ASSERT_TRUE(parsed.ok());
  const JsonValue& hist = parsed->items[0];
  EXPECT_DOUBLE_EQ(hist.Find("p50")->number, sample->p50);
  EXPECT_DOUBLE_EQ(hist.Find("p90")->number, sample->p90);
  EXPECT_DOUBLE_EQ(hist.Find("p99")->number, sample->p99);
}

TEST(TraceRecorderTest, MaxSpansDropsGracefully) {
  TraceRecorder rec;
  rec.set_max_spans(2);
  int32_t root = rec.BeginSpan("root");
  int32_t kept = rec.BeginSpan("kept");
  int32_t dropped = rec.BeginSpan("dropped");
  EXPECT_EQ(dropped, TraceRecorder::kNoSpan);
  rec.AddAttr(dropped, "k", 1.0);  // No-op, must not crash.
  rec.EndSpan(dropped);
  rec.EndSpan(kept);
  rec.EndSpan(root);
  EXPECT_EQ(rec.num_spans(), 2u);
  EXPECT_EQ(rec.spans_dropped(), 1u);
  EXPECT_EQ(rec.open_depth(), 0u);
  rec.Clear();
  EXPECT_EQ(rec.spans_dropped(), 0u);
}

TEST(TelemetryTest, RecordFrameStampsIndexAndContext) {
  Telemetry t;
  EXPECT_FALSE(t.tracer().enabled());  // Opt-in by design.
  t.set_context("session 1");
  telemetry::FrameRecord r;
  r.system = "visual";
  r.io_pages = 12;
  t.RecordFrame(r);
  t.RecordFrame(r);
  ASSERT_EQ(t.frames().size(), 2u);
  EXPECT_EQ(t.frames()[0].index, 0u);
  EXPECT_EQ(t.frames()[1].index, 1u);
  EXPECT_EQ(t.frames()[1].context, "session 1");
  ASSERT_NE(t.last_frame(), nullptr);
  t.last_frame()->fidelity = 0.875;
  EXPECT_DOUBLE_EQ(t.frames()[1].fidelity, 0.875);
}

TEST(TelemetryTest, MaxFramesDropsButCounts) {
  Telemetry t;
  t.set_max_frames(2);
  for (int i = 0; i < 5; ++i) {
    t.RecordFrame({});
  }
  EXPECT_EQ(t.frames().size(), 2u);
  EXPECT_EQ(t.frames_recorded(), 5u);
  EXPECT_EQ(t.frames_dropped(), 3u);
}

TEST(TelemetryTest, SnapshotJsonRoundTrip) {
  Telemetry t;
  t.metrics().GetCounter("visual.search.queries")->Add(2);
  t.tracer().set_enabled(true);
  int32_t span = t.tracer().BeginSpan("search");
  t.tracer().EndSpan(span);

  telemetry::FrameRecord r;
  r.system = "visual";
  r.kind = "query";
  r.cell = 7;
  r.frame_time_ms = 3.5;
  r.io_pages = 11;
  r.nodes_visited = 4;
  r.vpages_fetched = 2;
  r.hidden_pruned = 6;
  r.internal_terminations = 1;
  r.cache_hit_rate = 0.75;
  r.fidelity = 0.9;
  t.RecordFrame(r);

  Result<JsonValue> parsed = ParseJson(t.SnapshotJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->Find("version")->number, 1.0);
  EXPECT_DOUBLE_EQ(parsed->Find("frames_recorded")->number, 1.0);
  const JsonValue* metrics = parsed->Find("metrics");
  ASSERT_TRUE(metrics != nullptr && metrics->is_array());
  EXPECT_EQ(metrics->items[0].Find("name")->string,
            "visual.search.queries");
  const JsonValue* frames = parsed->Find("frames");
  ASSERT_TRUE(frames != nullptr && frames->is_array());
  ASSERT_EQ(frames->items.size(), 1u);
  const JsonValue& frame = frames->items[0];
  EXPECT_EQ(frame.Find("system")->string, "visual");
  EXPECT_EQ(frame.Find("kind")->string, "query");
  EXPECT_DOUBLE_EQ(frame.Find("cell")->number, 7.0);
  EXPECT_DOUBLE_EQ(frame.Find("io_pages")->number, 11.0);
  EXPECT_DOUBLE_EQ(frame.Find("nodes_visited")->number, 4.0);
  EXPECT_DOUBLE_EQ(frame.Find("vpages_fetched")->number, 2.0);
  EXPECT_DOUBLE_EQ(frame.Find("hidden_pruned")->number, 6.0);
  EXPECT_DOUBLE_EQ(frame.Find("internal_terminations")->number, 1.0);
  EXPECT_DOUBLE_EQ(frame.Find("cache_hit_rate")->number, 0.75);
  EXPECT_DOUBLE_EQ(frame.Find("fidelity")->number, 0.9);
  const JsonValue* trace = parsed->Find("trace");
  ASSERT_TRUE(trace != nullptr && trace->is_array());
  EXPECT_EQ(trace->items[0].Find("name")->string, "search");

  t.Reset();
  EXPECT_EQ(t.frames().size(), 0u);
  EXPECT_EQ(t.frames_recorded(), 0u);
  EXPECT_EQ(t.metrics().GetCounter("visual.search.queries")->value(), 0u);
  EXPECT_EQ(t.tracer().num_spans(), 0u);
}

TEST(TelemetryTest, ChromeTraceSchema) {
  // A traced search records the span shapes the searcher emits (one
  // "search" root, "node" children, decision leaves) plus per-query frame
  // records; the Chrome-trace export of that state must be a valid
  // trace-event document: frames as complete events, spans as balanced
  // B/E pairs in wall-clock order with their attributes in the B args.
  Telemetry t;
  t.tracer().set_enabled(true);
  int32_t search = t.tracer().BeginSpan("search");
  t.tracer().AddAttr(search, "eta", 0.001);
  int32_t node = t.tracer().BeginSpan("node");
  int32_t prune = t.tracer().BeginSpan("prune");
  t.tracer().AddAttr(prune, "dov", 0.0);
  t.tracer().EndSpan(prune);
  t.tracer().EndSpan(node);
  int32_t node2 = t.tracer().BeginSpan("node");
  t.tracer().EndSpan(node2);
  t.tracer().EndSpan(search);

  telemetry::FrameRecord r;
  r.system = "visual";
  r.kind = "query";
  r.query_time_ms = 2.5;
  r.io_pages = 3;
  t.RecordFrame(r);
  r.io_pages = 5;
  t.RecordFrame(r);

  Result<JsonValue> parsed = ParseJson(t.ChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("displayTimeUnit")->string, "ms");
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  ASSERT_FALSE(events->items.empty());

  size_t complete_events = 0;
  std::vector<std::string> span_phases;  // "B search", "E search", ...
  double last_span_ts = 0.0;
  for (const JsonValue& event : events->items) {
    // Every event carries the mandatory trace-event fields.
    ASSERT_NE(event.Find("name"), nullptr);
    ASSERT_NE(event.Find("ph"), nullptr);
    ASSERT_NE(event.Find("pid"), nullptr);
    const std::string& ph = event.Find("ph")->string;
    EXPECT_TRUE(ph == "X" || ph == "M" || ph == "C" || ph == "B" ||
                ph == "E")
        << ph;
    if (ph != "M") {
      ASSERT_NE(event.Find("ts"), nullptr);
      ASSERT_NE(event.Find("tid"), nullptr);
    }
    if (ph == "X") {
      ++complete_events;
      EXPECT_EQ(event.Find("pid")->number, 1.0);  // Frame process.
      ASSERT_NE(event.Find("dur"), nullptr);
      EXPECT_GT(event.Find("dur")->number, 0.0);
    }
    if (ph == "B" || ph == "E") {
      EXPECT_EQ(event.Find("pid")->number, 2.0);  // Search-trace process.
      EXPECT_GE(event.Find("ts")->number, last_span_ts);
      last_span_ts = event.Find("ts")->number;
      span_phases.push_back(ph + " " + event.Find("name")->string);
      const JsonValue* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      if (ph == "B" && event.Find("name")->string == "search") {
        ASSERT_NE(args->Find("eta"), nullptr);
        EXPECT_DOUBLE_EQ(args->Find("eta")->number, 0.001);
      }
      if (ph == "B" && event.Find("name")->string == "prune") {
        ASSERT_NE(args->Find("dov"), nullptr);
      }
    }
  }
  EXPECT_EQ(complete_events, 2u);  // The two frames.
  // The spans nest exactly like the recorded tree.
  EXPECT_EQ(span_phases,
            (std::vector<std::string>{"B search", "B node", "B prune",
                                      "E prune", "E node", "B node",
                                      "E node", "E search"}));
}

}  // namespace
}  // namespace hdov
