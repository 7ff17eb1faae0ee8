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
// ScopedTimer
// ---------------------------------------------------------------------------

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
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
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

  std::vector<MetricSample> filtered =
      reg.Snapshot(MetricFilter::kDeterministicOnly);
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].name, "b.deterministic");

  std::vector<MetricSample> wall = reg.Snapshot(MetricFilter::kWallTimeOnly);
  ASSERT_EQ(wall.size(), 1u);
  EXPECT_TRUE(wall[0].wall_time);
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

// The writer's exact bytes. One registry holds every sample shape: a
// counter, a gauge, a wall-time gauge and a histogram whose p999 differs
// from its p99. The histogram has one bucket per decade over [1, 1000], so
// every quantile is a bucket's geometric midpoint clamped to [min, max]:
// 999 samples of 5 put p50..p99 in (1, 10] (midpoint √10, clamped to 5),
// and the one sample of 500 puts p999 in (100, 1000] (midpoint √1e5).
void FillExportFixture(MetricsRegistry* reg) {
  reg->GetCounter("a.counter")->Increment(42);
  reg->GetGauge("b.gauge")->Set(0.25);
  reg->GetGauge("c.wall_seconds", MetricOptions::WallClock())->Set(1.5);
  MetricOptions layout;
  layout.histogram = {.min_bound = 1, .max_bound = 1000,
                      .buckets_per_decade = 1};
  Histogram* h = reg->GetHistogram("d.hist", layout);
  for (int i = 0; i < 999; ++i) h->Record(5);
  h->Record(500);
}

constexpr char kCounterJson[] =
    "{\"name\":\"a.counter\",\"kind\":\"counter\",\"wall_time\":false,"
    "\"value\":42}";
constexpr char kGaugeJson[] =
    "{\"name\":\"b.gauge\",\"kind\":\"gauge\",\"wall_time\":false,"
    "\"value\":0.25}";
constexpr char kWallGaugeJson[] =
    "{\"name\":\"c.wall_seconds\",\"kind\":\"gauge\",\"wall_time\":true,"
    "\"value\":1.5}";
constexpr char kHistogramJson[] =
    "{\"name\":\"d.hist\",\"kind\":\"histogram\",\"wall_time\":false,"
    "\"count\":1000,\"sum\":5495,\"min\":5,\"max\":500,\"mean\":5.495,"
    "\"p50\":5,\"p90\":5,\"p99\":5,\"p999\":316.22776601683796,"
    "\"min_bound\":1,\"max_bound\":1000,\"buckets_per_decade\":1,"
    "\"buckets\":[[1,999],[3,1]]}";

TEST(MetricsRegistryTest, ExportJsonExactBytes) {
  MetricsRegistry reg;
  FillExportFixture(&reg);
  const std::string head = "{\"schema\":\"sgp.metrics.v1\",\"metrics\":[";
  EXPECT_EQ(reg.ExportJson(), head + kCounterJson + ",\n " + kGaugeJson +
                                  ",\n " + kWallGaugeJson + ",\n " +
                                  kHistogramJson + "]}");
  EXPECT_EQ(reg.ExportJson(MetricFilter::kDeterministicOnly),
            head + kCounterJson + ",\n " + kGaugeJson + ",\n " +
                kHistogramJson + "]}");
}

TEST(MetricsRegistryTest, SerializeMetricsArrayJsonExactBytes) {
  MetricsRegistry reg;
  FillExportFixture(&reg);
  EXPECT_EQ(SerializeMetricsArrayJson(reg.Snapshot()),
            std::string("[") + kCounterJson + ",\n " + kGaugeJson + ",\n " +
                kWallGaugeJson + ",\n " + kHistogramJson + "]");
  EXPECT_EQ(
      SerializeMetricsArrayJson(reg.Snapshot(MetricFilter::kWallTimeOnly)),
      std::string("[") + kWallGaugeJson + "]");
  EXPECT_EQ(SerializeMetricsArrayJson({}), "[]");
}

TEST(MetricsRegistryTest, GlobalRegistryHasLibraryInstrumentation) {
  // The built-in instrumentation registers lazily; poking one subsystem
  // metric here keeps the test independent of execution order.
  MetricsRegistry::Global().GetCounter("test.global.probe")->Increment();
  EXPECT_GE(MetricsRegistry::Global().Snapshot().size(), 1u);
}

}  // namespace
}  // namespace sgp
