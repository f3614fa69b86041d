// obs::MetricsRegistry / TraceRing / exporters: registration semantics,
// shard aggregation, handle inertness, snapshot helpers, bucket math, ring
// wraparound and the two export formats. Every test that needs live metrics
// skips itself in a -DMONOHIDS_OBS=OFF build (the suite must stay green in
// both flavors); the OFF-specific contracts get their own tests below.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace monohids::obs {
namespace {

#define SKIP_WHEN_OBS_OFF()                                         \
  if constexpr (!kEnabled) {                                        \
    GTEST_SKIP() << "observability compiled out (MONOHIDS_OBS=OFF)"; \
  }

TEST(MetricsRegistry, CounterAccumulatesIntoSnapshot) {
  SKIP_WHEN_OBS_OFF();
  MetricsRegistry registry;
  Counter c = registry.counter("test.counter");
  EXPECT_FALSE(c.is_null());
  c.inc();
  c.add(41);
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("test.counter"), 42u);
}

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  SKIP_WHEN_OBS_OFF();
  MetricsRegistry registry;
  Counter a = registry.counter("same.name");
  Counter b = registry.counter("same.name");
  a.add(2);
  b.add(3);
  // Same name -> same underlying metric, and only one sample row.
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter_value("same.name"), 5u);
  EXPECT_EQ(snap.counters.size(), 1u);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  SKIP_WHEN_OBS_OFF();
  MetricsRegistry registry;
  (void)registry.counter("kinded.metric");
  EXPECT_THROW((void)registry.gauge("kinded.metric"), std::logic_error);
  EXPECT_THROW((void)registry.histogram("kinded.metric", {1.0}), std::logic_error);
}

TEST(MetricsRegistry, DefaultHandlesAreInert) {
  // Holds in both build flavors: un-registered handles must be safe no-ops.
  Counter c;
  Gauge g;
  Histogram h;
  EXPECT_TRUE(c.is_null());
  EXPECT_TRUE(g.is_null());
  EXPECT_TRUE(h.is_null());
  c.add(7);
  g.set(7);
  g.add(1);
  h.observe(7.0);
}

TEST(MetricsRegistry, GaugeTracksValueAndHighWater) {
  SKIP_WHEN_OBS_OFF();
  MetricsRegistry registry;
  Gauge g = registry.gauge("test.gauge");
  g.set(5);
  g.add(10);  // 15 — the peak
  g.sub(12);  // 3
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.gauge_value("test.gauge"), 3);
  EXPECT_EQ(snap.gauge_value("test.gauge.max"), 15);
}

TEST(MetricsRegistry, HistogramBucketsCountsAndSum) {
  SKIP_WHEN_OBS_OFF();
  MetricsRegistry registry;
  Histogram h = registry.histogram("test.hist", {1.0, 2.0, 4.0});
  for (double v : {0.5, 1.5, 1.5, 3.0, 100.0}) h.observe(v);

  const MetricsSnapshot snap = registry.snapshot();
  const HistogramSample* sample = snap.histogram("test.hist");
  ASSERT_NE(sample, nullptr);
  ASSERT_EQ(sample->bounds.size(), 3u);
  ASSERT_EQ(sample->counts.size(), 4u);  // bounds + implicit +inf bucket
  EXPECT_EQ(sample->counts[0], 1u);      // <= 1
  EXPECT_EQ(sample->counts[1], 2u);      // (1, 2]
  EXPECT_EQ(sample->counts[2], 1u);      // (2, 4]
  EXPECT_EQ(sample->counts[3], 1u);      // +inf
  EXPECT_EQ(sample->count, 5u);
  EXPECT_DOUBLE_EQ(sample->sum, 0.5 + 1.5 + 1.5 + 3.0 + 100.0);

  // Quantiles are bucket-interpolated: exact values are not promised, but
  // they must be monotone in q and inside the populated bucket range.
  const double p25 = sample->approx_quantile(0.25);
  const double p50 = sample->approx_quantile(0.50);
  const double p99 = sample->approx_quantile(0.99);
  EXPECT_LE(p25, p50);
  EXPECT_LE(p50, p99);
  EXPECT_GE(p25, 0.0);
  EXPECT_GE(p99, 4.0);  // the top observation lives in the overflow bucket
}

TEST(MetricsRegistry, HistogramReRegistrationKeepsOriginalBounds) {
  SKIP_WHEN_OBS_OFF();
  MetricsRegistry registry;
  (void)registry.histogram("agreed.hist", {1.0, 2.0});
  Histogram again = registry.histogram("agreed.hist", {10.0, 20.0, 30.0});
  again.observe(1.5);
  const MetricsSnapshot snap = registry.snapshot();  // owns what `sample` points into
  const HistogramSample* sample = snap.histogram("agreed.hist");
  ASSERT_NE(sample, nullptr);
  EXPECT_EQ(sample->bounds, (BucketBounds{1.0, 2.0}));
}

TEST(MetricsRegistry, SnapshotSumsShardsAcrossThreads) {
  SKIP_WHEN_OBS_OFF();
  MetricsRegistry registry;
  Counter c = registry.counter("threads.counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c]() mutable {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.snapshot().counter_value("threads.counter"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsHandles) {
  SKIP_WHEN_OBS_OFF();
  MetricsRegistry registry;
  Counter c = registry.counter("reset.counter");
  Histogram h = registry.histogram("reset.hist", {1.0});
  c.add(10);
  h.observe(0.5);
  registry.reset();
  EXPECT_EQ(registry.snapshot().counter_value("reset.counter"), 0u);
  EXPECT_EQ(registry.snapshot().histogram("reset.hist")->count, 0u);
  c.add(3);  // outstanding handles still feed the same (zeroed) metric
  h.observe(0.5);
  EXPECT_EQ(registry.snapshot().counter_value("reset.counter"), 3u);
  EXPECT_EQ(registry.snapshot().histogram("reset.hist")->count, 1u);
}

TEST(MetricsSnapshot, LookupHelpersHandleAbsentNames) {
  MetricsSnapshot empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.counter_value("nope"), 0u);
  EXPECT_EQ(empty.gauge_value("nope"), 0);
  EXPECT_EQ(empty.histogram("nope"), nullptr);
}

TEST(BucketPresets, AreAscendingAndNonEmpty) {
  for (const BucketBounds& bounds : {latency_buckets_ms(), pow2_buckets(10)}) {
    ASSERT_FALSE(bounds.empty());
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
  EXPECT_EQ(pow2_buckets(4), (BucketBounds{1.0, 2.0, 4.0, 8.0}));
}

TEST(TraceRing, RecordsAndCollects) {
  SKIP_WHEN_OBS_OFF();
  TraceRing ring(8);
  ring.record("unit.span", 100, 25);
  const auto spans = ring.collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "unit.span");
  EXPECT_EQ(spans[0].start_us, 100u);
  EXPECT_EQ(spans[0].duration_us, 25u);
}

TEST(TraceRing, WrapsAroundKeepingTheMostRecentWindow) {
  SKIP_WHEN_OBS_OFF();
  TraceRing ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (std::uint64_t i = 0; i < 10; ++i) ring.record("wrap.span", i, 1);
  EXPECT_EQ(ring.recorded(), 10u);
  const auto spans = ring.collect();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first within the retained window: the last 4 of the 10 records.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].start_us, 6 + i);
  }
  ring.clear();
  EXPECT_TRUE(ring.collect().empty());
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  SKIP_WHEN_OBS_OFF();
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(5).capacity(), 8u);
}

TEST(ScopedTimer, RecordsSpanAndObservesHistogram) {
  SKIP_WHEN_OBS_OFF();
  MetricsRegistry registry;
  Histogram h = registry.histogram("timer.ms", latency_buckets_ms());
  const std::uint64_t before = TraceRing::global().recorded();
  {
    const ScopedTimer timer("test.scoped_timer", h);
    EXPECT_GE(timer.elapsed_us(), 0u);
  }
  EXPECT_EQ(TraceRing::global().recorded(), before + 1);
  EXPECT_EQ(registry.snapshot().histogram("timer.ms")->count, 1u);
  bool found = false;
  for (const SpanSample& span : TraceRing::global().collect()) {
    if (span.name == "test.scoped_timer") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(NowUs, IsMonotone) {
  const std::uint64_t a = now_us();
  const std::uint64_t b = now_us();
  EXPECT_LE(a, b);
}

TEST(Export, JsonCarriesCountersGaugesHistogramsAndSpans) {
  SKIP_WHEN_OBS_OFF();
  MetricsRegistry registry;
  registry.counter("json.counter").add(7);
  registry.gauge("json.gauge").set(-3);
  registry.histogram("json.hist", {1.0, 2.0}).observe(1.5);
  const std::vector<SpanSample> spans = {{"json.span", 1, 10, 5, 0}};

  const std::string doc = to_json(registry.snapshot(), spans);
  EXPECT_NE(doc.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(doc.find("\"json.counter\": 7"), std::string::npos);
  EXPECT_NE(doc.find("\"json.gauge\": -3"), std::string::npos);
  EXPECT_NE(doc.find("\"json.hist\""), std::string::npos);
  EXPECT_NE(doc.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"json.span\""), std::string::npos);
  EXPECT_NE(doc.find("\"duration_us\": 5"), std::string::npos);
}

TEST(Export, PrometheusFormatsNamesTypesAndCumulativeBuckets) {
  SKIP_WHEN_OBS_OFF();
  MetricsRegistry registry;
  registry.counter("prom.counter-x").add(2);
  Histogram h = registry.histogram("prom.hist", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);

  const std::string text = to_prometheus(registry.snapshot());
  // Dots and dashes become underscores under the monohids_ prefix.
  EXPECT_NE(text.find("# TYPE monohids_prom_counter_x counter"), std::string::npos);
  EXPECT_NE(text.find("monohids_prom_counter_x 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE monohids_prom_hist histogram"), std::string::npos);
  // Buckets are cumulative: le="2" covers both the 0.5 and 1.5 observations.
  EXPECT_NE(text.find("monohids_prom_hist_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("monohids_prom_hist_bucket{le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("monohids_prom_hist_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("monohids_prom_hist_count 3"), std::string::npos);
}

TEST(Export, GlobalJsonStreamIsAlwaysWellFormed) {
  // Works in both flavors: OFF builds emit an empty-but-valid document so
  // --metrics-json flags never have to care about the build type.
  std::ostringstream out;
  write_global_json(out);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"spans\""), std::string::npos);
  if constexpr (kEnabled) {
    EXPECT_NE(doc.find("\"enabled\": true"), std::string::npos);
  } else {
    EXPECT_NE(doc.find("\"enabled\": false"), std::string::npos);
  }
}

TEST(ObsOffFlavor, SnapshotsAreEmpty) {
  if constexpr (kEnabled) {
    GTEST_SKIP() << "only meaningful with MONOHIDS_OBS=OFF";
  }
  MetricsRegistry registry;
  Counter c = registry.counter("off.counter");
  c.add(5);
  EXPECT_TRUE(registry.snapshot().empty());
  EXPECT_EQ(TraceRing::global().capacity(), 0u);
}

}  // namespace
}  // namespace monohids::obs
