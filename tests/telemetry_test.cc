#include "common/telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "common/statistics.h"

namespace sgp {
namespace {

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

TEST(CounterTest, IncrementAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, SaturatesInsteadOfWrapping) {
  Counter c;
  c.Increment(std::numeric_limits<uint64_t>::max() - 1);
  c.Increment(5);  // would wrap
  EXPECT_EQ(c.value(), std::numeric_limits<uint64_t>::max());
  c.Increment();  // already saturated
  EXPECT_EQ(c.value(), std::numeric_limits<uint64_t>::max());
}

TEST(CounterTest, NegativeDeltasAreIgnored) {
  Counter c;
  c.Add(10);
  c.Add(-7);
  c.Add(0);
  EXPECT_EQ(c.value(), 10u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(HistogramTest, ExactScalarStatistics) {
  Histogram h;
  for (double v : {0.001, 0.002, 0.004, 0.010}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.017);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.010);
  EXPECT_DOUBLE_EQ(h.mean(), 0.017 / 4);
}

TEST(HistogramTest, BucketBoundariesAreLogSpaced) {
  HistogramOptions opt;
  opt.min_bound = 1e-3;
  opt.max_bound = 1e3;
  opt.buckets_per_decade = 10;
  Histogram h(opt);
  // Bucket 0 is the underflow bucket with upper bound min_bound; each
  // subsequent boundary is a factor 10^(1/10) above the previous one.
  EXPECT_DOUBLE_EQ(h.BucketUpperBound(0), 1e-3);
  const double step = std::pow(10.0, 0.1);
  for (size_t i = 1; i + 1 < h.num_buckets(); ++i) {
    EXPECT_NEAR(h.BucketUpperBound(i) / h.BucketUpperBound(i - 1), step,
                1e-9)
        << "bucket " << i;
  }
  // Last bucket is the overflow bucket.
  EXPECT_TRUE(std::isinf(h.BucketUpperBound(h.num_buckets() - 1)));
  // 6 decades * 10 buckets + underflow + overflow.
  EXPECT_EQ(h.num_buckets(), 62u);
}

TEST(HistogramTest, UnderflowAndOverflowStayExactInMinMax) {
  HistogramOptions opt;
  opt.min_bound = 1e-3;
  opt.max_bound = 1.0;
  Histogram h(opt);
  h.Record(1e-6);  // underflow bucket
  h.Record(50.0);  // overflow bucket
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 50.0);
  EXPECT_EQ(h.BucketCount(0), 1u);
  EXPECT_EQ(h.BucketCount(h.num_buckets() - 1), 1u);
  // Quantiles remain clamped to the observed range.
  EXPECT_GE(h.Quantile(0.0), 1e-6);
  EXPECT_LE(h.Quantile(1.0), 50.0);
}

TEST(HistogramTest, IgnoresNan) {
  Histogram h;
  h.Record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 0u);
}

TEST(HistogramTest, QuantilesMatchExactWithinBucketError) {
  // Compare against the exact sample quantiles from statistics.h. The
  // default layout has 32 buckets/decade, i.e. a worst-case relative
  // error of 10^(1/32) - 1 ~= 7.5%.
  Histogram h;
  std::vector<double> samples;
  double v = 1e-4;
  for (int i = 0; i < 1000; ++i) {
    samples.push_back(v);
    h.Record(v);
    v *= 1.005;  // spans ~2.2 decades
  }
  const double tolerance = std::pow(10.0, 1.0 / 32.0) - 1.0;
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = Quantile(samples, q);
    const double approx = h.Quantile(q);
    EXPECT_NEAR(approx / exact, 1.0, tolerance) << "q=" << q;
  }
}

TEST(HistogramTest, MergeIsExact) {
  // Two histograms merged must agree bit-for-bit with one histogram that
  // saw the concatenated stream (identical bucket layouts).
  Histogram a, b, whole;
  double v = 1e-5;
  for (int i = 0; i < 500; ++i) {
    (i % 2 == 0 ? a : b).Record(v);
    whole.Record(v);
    v *= 1.01;
  }
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
  for (double q : {0.05, 0.25, 0.5, 0.75, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), whole.Quantile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Record(0.5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_TRUE(h.NonZeroBuckets().empty());
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(TraceBufferTest, CapacityAndDropAccounting) {
  TraceBuffer buf(3);
  for (int i = 0; i < 5; ++i) {
    TraceEvent e;
    e.name = "e" + std::to_string(i);
    buf.Append(std::move(e));
  }
  EXPECT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.dropped(), 2u);
  std::vector<TraceEvent> events = buf.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "e0");  // append order, oldest kept
  EXPECT_EQ(events[2].name, "e2");
  buf.Clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(TraceBufferTest, ZeroCapacityDropsEverything) {
  TraceBuffer buf(0);
  EXPECT_FALSE(buf.Append(TraceEvent{}));
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.dropped(), 1u);
}

TEST(SpanTest, NestingRecordsParentAndDepth) {
  TraceBuffer buf;
  EXPECT_EQ(Span::CurrentDepth(), 0u);
  uint32_t outer_id;
  {
    Span outer(&buf, "outer");
    outer_id = outer.id();
    EXPECT_EQ(Span::CurrentDepth(), 1u);
    {
      Span inner(&buf, "inner");
      EXPECT_EQ(Span::CurrentDepth(), 2u);
    }
    EXPECT_EQ(Span::CurrentDepth(), 1u);
  }
  EXPECT_EQ(Span::CurrentDepth(), 0u);

  // Spans land on destruction, so "inner" precedes "outer".
  std::vector<TraceEvent> events = buf.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].parent, outer_id);
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].parent, TraceEvent::kNoParent);
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_LE(events[1].start, events[0].start);
  EXPECT_GE(events[1].end, events[0].end);
}

TEST(SpanTest, NullBufferIsInert) {
  Span span(nullptr, "noop");
  // An inert span takes no part in nesting (zero-cost opt-out).
  EXPECT_EQ(Span::CurrentDepth(), 0u);
}

TEST(ScopedTimerTest, RecordsOneSample) {
  Histogram h;
  { ScopedTimer t(&h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.min(), 0.0);
  { ScopedTimer t(nullptr); }  // inert
  EXPECT_EQ(h.count(), 1u);
}

// ---------------------------------------------------------------------------
// Registry + export
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, GetReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("test.counter");
  Counter* b = reg.GetCounter("test.counter");
  EXPECT_EQ(a, b);
  a->Increment(7);
  EXPECT_EQ(b->value(), 7u);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsRegistrations) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("test.counter");
  Histogram* h = reg.GetHistogram("test.hist");
  c->Increment(3);
  h->Record(0.5);
  reg.traces().Append(TraceEvent{});
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_TRUE(reg.traces().empty());
  EXPECT_EQ(reg.GetCounter("test.counter"), c);  // registration survives
}

TEST(MetricsRegistryTest, SnapshotIsNameOrderedAndFiltered) {
  MetricsRegistry reg;
  reg.GetCounter("b.deterministic");
  reg.GetCounter("a.wall", MetricOptions::WallClock());
  reg.GetGauge("c.gauge");

  std::vector<MetricSample> all = reg.Snapshot();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].name, "a.wall");
  EXPECT_EQ(all[1].name, "b.deterministic");
  EXPECT_EQ(all[2].name, "c.gauge");

  ExportOptions det;
  det.filter = MetricFilter::kDeterministicOnly;
  std::vector<MetricSample> filtered = reg.Snapshot(det);
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].name, "b.deterministic");

  ExportOptions wall;
  wall.filter = MetricFilter::kWallTimeOnly;
  ASSERT_EQ(reg.Snapshot(wall).size(), 1u);
  EXPECT_TRUE(reg.Snapshot(wall)[0].wall_time);
}

TEST(MetricsRegistryTest, ExportJsonIsDeterministic) {
  auto build = [] {
    auto reg = std::make_unique<MetricsRegistry>();
    reg->GetCounter("z.counter")->Increment(11);
    reg->GetGauge("a.gauge")->Set(0.25);
    Histogram* h = reg->GetHistogram("m.hist");
    for (double v : {0.001, 0.017, 0.3}) h->Record(v);
    return reg;
  };
  auto r1 = build();
  auto r2 = build();
  EXPECT_EQ(r1->ExportJson(), r2->ExportJson());
}

TEST(MetricsRegistryTest, JsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.GetCounter("roundtrip.counter")->Increment(123456789);
  reg.GetGauge("roundtrip.gauge")->Set(3.141592653589793);
  Histogram* h = reg.GetHistogram("roundtrip.hist");
  double v = 2.3e-7;
  for (int i = 0; i < 257; ++i) {
    h->Record(v);
    v *= 1.07;
  }

  std::vector<MetricSample> original = reg.Snapshot();
  std::vector<MetricSample> parsed;
  ASSERT_TRUE(ParseMetricsJson(reg.ExportJson(), &parsed));
  EXPECT_EQ(parsed, original);

  // The bare-array serializer round-trips the same way.
  std::vector<MetricSample> parsed_array;
  std::string array_json =
      "{\"metrics\":" + SerializeMetricsArrayJson(original) + "}";
  ASSERT_TRUE(ParseMetricsJson(array_json, &parsed_array));
  EXPECT_EQ(parsed_array, original);
}

TEST(MetricsRegistryTest, ParserRejectsMalformedInput) {
  std::vector<MetricSample> out;
  EXPECT_FALSE(ParseMetricsJson("{\"metrics\":[", &out));
  EXPECT_FALSE(ParseMetricsJson("not json", &out));
  EXPECT_FALSE(ParseMetricsJson("{\"nope\":1}", &out));
}

TEST(MetricsRegistryTest, ExportIncludesTracesWhenRequested) {
  MetricsRegistry reg;
  { Span s(&reg.traces(), "unit"); }
  ExportOptions opt;
  opt.include_traces = true;
  std::string json = reg.ExportJson(opt);
  EXPECT_NE(json.find("\"traces\""), std::string::npos);
  EXPECT_NE(json.find("\"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_traces\":0"), std::string::npos);
  // Still a valid document.
  std::vector<MetricSample> out;
  EXPECT_TRUE(ParseMetricsJson(json, &out));
}

TEST(MetricsRegistryTest, ExportSurfacesDroppedTraceCount) {
  MetricsRegistry reg;
  reg.traces().set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    reg.traces().Append({.name = "e" + std::to_string(i)});
  }
  ASSERT_EQ(reg.traces().dropped(), 3u);
  ExportOptions opt;
  opt.include_traces = true;
  std::string json = reg.ExportJson(opt);
  // A capped trace is visibly incomplete in the export, not silently so.
  EXPECT_NE(json.find("\"dropped_traces\":3"), std::string::npos);
  minijson::Value doc;
  ASSERT_TRUE(minijson::Parse(json, &doc));
  const minijson::Value* dropped = doc.Find("dropped_traces");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->number, 3.0);
  EXPECT_EQ(doc.Find("traces")->array.size(), 2u);
  // Without include_traces, neither key appears.
  std::string plain = reg.ExportJson();
  EXPECT_EQ(plain.find("\"dropped_traces\""), std::string::npos);
}

TEST(MetricsRegistryTest, RoundTripsDocumentsWithTracesAndP999) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("tail.hist");
  for (int i = 1; i <= 2000; ++i) h->Record(i * 1e-4);
  { Span s(&reg.traces(), "traced-op"); }
  ExportOptions opt;
  opt.include_traces = true;

  // The parser skips the trace siblings and recovers every metric field,
  // p999 included, exactly.
  std::vector<MetricSample> original = reg.Snapshot();
  std::vector<MetricSample> parsed;
  ASSERT_TRUE(ParseMetricsJson(reg.ExportJson(opt), &parsed));
  EXPECT_EQ(parsed, original);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_GT(parsed[0].p999, 0.0);
  EXPECT_GE(parsed[0].p999, parsed[0].p99);
  EXPECT_NE(reg.ExportJson(opt).find("\"p999\":"), std::string::npos);
}

TEST(MetricsRegistryTest, GlobalRegistryHasLibraryInstrumentation) {
  // The built-in instrumentation registers lazily; poking one subsystem
  // metric here keeps the test independent of execution order.
  MetricsRegistry::Global().GetCounter("test.global.probe")->Increment();
  EXPECT_GE(MetricsRegistry::Global().Snapshot().size(), 1u);
}

}  // namespace
}  // namespace sgp
