#include "obs/obs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "obs/trace.h"

namespace birnn::obs {
namespace {

/// Scrape helper: the aggregated snapshot entry for `name`, or nullopt.
const MetricSnapshot* Find(const std::vector<MetricSnapshot>& snapshot,
                           const std::string& name) {
  for (const MetricSnapshot& m : snapshot) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// ------------------------------------------------------------------ buckets

TEST(BucketsTest, BoundsAreExponential) {
  EXPECT_DOUBLE_EQ(BucketUpperBound(21), 1.0);
  EXPECT_DOUBLE_EQ(BucketUpperBound(22), 2.0);
  EXPECT_DOUBLE_EQ(BucketUpperBound(20), 0.5);
  EXPECT_DOUBLE_EQ(BucketUpperBound(0), std::ldexp(1.0, -21));
  EXPECT_TRUE(std::isinf(BucketUpperBound(kHistogramBuckets - 1)));
}

TEST(BucketsTest, IndexInvertsBounds) {
  // A bucket's upper bound is the largest value the bucket holds.
  for (int i = 0; i < kHistogramBuckets - 1; ++i) {
    EXPECT_EQ(BucketIndex(BucketUpperBound(i)), i) << "bound of bucket " << i;
    EXPECT_EQ(BucketIndex(BucketUpperBound(i) * 1.001), i + 1);
  }
  EXPECT_EQ(BucketIndex(0.0), 0);
  EXPECT_EQ(BucketIndex(-3.0), 0);
  EXPECT_EQ(BucketIndex(1e300), kHistogramBuckets - 1);
}

// ----------------------------------------------------------------- counters

TEST(CounterTest, AddAndValue) {
  Counter c("test/counter_add");
  EXPECT_EQ(c.Value(), 0);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42);
}

TEST(CounterTest, ConcurrentWritersSumExactly) {
  Counter c("test/counter_mt");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), int64_t{kThreads} * kAddsPerThread);
}

// ------------------------------------------------------------------- gauges

TEST(GaugeTest, SetAddKeepMax) {
  Gauge g("test/gauge");
  g.Set(5.0);
  EXPECT_DOUBLE_EQ(g.Value(), 5.0);
  g.Add(-2.0);
  EXPECT_DOUBLE_EQ(g.Value(), 3.0);
  g.KeepMax(10.0);
  EXPECT_DOUBLE_EQ(g.Value(), 10.0);
  g.KeepMax(1.0);  // lower: no effect
  EXPECT_DOUBLE_EQ(g.Value(), 10.0);
}

TEST(GaugeTest, ConcurrentAddsBalance) {
  Gauge g("test/gauge_mt");
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < 5000; ++i) {
        g.Add(3.0);
        g.Add(-3.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.Value(), 0.0);
}

// --------------------------------------------------------------- histograms

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram h("test/hist_empty");
  const HistogramData d = h.Snapshot();
  EXPECT_EQ(d.count, 0);
  EXPECT_DOUBLE_EQ(d.sum, 0.0);
  EXPECT_DOUBLE_EQ(d.min, 0.0);
  EXPECT_DOUBLE_EQ(d.max, 0.0);
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.Quantile(0.99), 0.0);
}

TEST(HistogramTest, SingleSampleQuantilesAreExact) {
  Histogram h("test/hist_single");
  h.Record(0.125);
  const HistogramData d = h.Snapshot();
  EXPECT_EQ(d.count, 1);
  EXPECT_DOUBLE_EQ(d.sum, 0.125);
  EXPECT_DOUBLE_EQ(d.min, 0.125);
  EXPECT_DOUBLE_EQ(d.max, 0.125);
  // One sample: every quantile is that sample (clamped to [min, max]).
  EXPECT_DOUBLE_EQ(d.Quantile(0.0), 0.125);
  EXPECT_DOUBLE_EQ(d.Quantile(0.5), 0.125);
  EXPECT_DOUBLE_EQ(d.Quantile(1.0), 0.125);
}

TEST(HistogramTest, QuantilesAreMonotoneAndBracketed) {
  Histogram h("test/hist_mono");
  for (int i = 1; i <= 1000; ++i) h.Record(i * 0.001);  // 1ms..1s
  const HistogramData d = h.Snapshot();
  EXPECT_EQ(d.count, 1000);
  double prev = 0.0;
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0}) {
    const double est = d.Quantile(q);
    EXPECT_GE(est, prev) << "q=" << q;
    EXPECT_GE(est, d.min);
    EXPECT_LE(est, d.max);
    prev = est;
  }
  // p50 of uniform 0.001..1.0 is ~0.5; the bucket estimate may be up to one
  // power of two high.
  EXPECT_GE(d.Quantile(0.5), 0.5);
  EXPECT_LE(d.Quantile(0.5), 1.0);
}

TEST(HistogramTest, MergeCombinesCountsAndExtremes) {
  HistogramData a, b;
  {
    Histogram h("test/hist_merge_a");
    h.Record(1.0);
    h.Record(2.0);
    a = h.Snapshot();
  }
  {
    Histogram h("test/hist_merge_b");
    h.Record(0.25);
    b = h.Snapshot();
  }
  a.Merge(b);
  EXPECT_EQ(a.count, 3);
  EXPECT_DOUBLE_EQ(a.sum, 3.25);
  EXPECT_DOUBLE_EQ(a.min, 0.25);
  EXPECT_DOUBLE_EQ(a.max, 2.0);

  HistogramData empty;
  a.Merge(empty);  // merging empty changes nothing
  EXPECT_EQ(a.count, 3);
  EXPECT_DOUBLE_EQ(a.min, 0.25);

  HistogramData into_empty;
  into_empty.Merge(a);
  EXPECT_EQ(into_empty.count, 3);
  EXPECT_DOUBLE_EQ(into_empty.min, 0.25);
  EXPECT_DOUBLE_EQ(into_empty.max, 2.0);
}

TEST(HistogramTest, ConcurrentWritersCountExactly) {
  Histogram h("test/hist_mt");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(0.001 * (t + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramData d = h.Snapshot();
  EXPECT_EQ(d.count, int64_t{kThreads} * kPerThread);
  EXPECT_DOUBLE_EQ(d.min, 0.001);
  EXPECT_DOUBLE_EQ(d.max, 0.008);
  EXPECT_NEAR(d.sum, 5000 * 0.001 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8), 1e-6);
}

// ----------------------------------------------------------------- registry

TEST(RegistryTest, SameNameMetricsAggregateOnScrape) {
  Counter a("test/agg_counter");
  Counter b("test/agg_counter");
  a.Add(10);
  b.Add(32);
  // Each instance reads its own value...
  EXPECT_EQ(a.Value(), 10);
  EXPECT_EQ(b.Value(), 32);
  // ...while the scrape sees one merged family.
  const auto snapshot = Registry::Get().Snapshot();
  const MetricSnapshot* m = Find(snapshot, "test/agg_counter");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->counter, 42);
}

TEST(RegistryTest, RetiredMetricsRetainTotals) {
  // A component-owned metric dying with its owner must not erase its
  // history from the scrape: totals fold into the registry's retained
  // aggregates (e.g. a serve bench scraping after server shutdown).
  {
    Counter c("test/ephemeral_counter");
    c.Add(7);
  }
  {
    Counter c("test/ephemeral_counter");
    c.Add(5);
    // Live instance reads only itself; the scrape sees dead + live.
    EXPECT_EQ(c.Value(), 5);
    const std::vector<MetricSnapshot> snapshot = Registry::Get().Snapshot();
    const MetricSnapshot* m = Find(snapshot, "test/ephemeral_counter");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->counter, 12);
  }
  const std::vector<MetricSnapshot> snapshot = Registry::Get().Snapshot();
  const MetricSnapshot* m = Find(snapshot, "test/ephemeral_counter");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->counter, 12);
}

TEST(RegistryTest, RetiredHistogramsMergeIntoScrape) {
  {
    Histogram h("test/ephemeral_hist");
    h.Record(1.0);
    h.Record(4.0);
  }
  Histogram h("test/ephemeral_hist");
  h.Record(2.0);
  const std::vector<MetricSnapshot> snapshot = Registry::Get().Snapshot();
  const MetricSnapshot* m = Find(snapshot, "test/ephemeral_hist");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->histogram.count, 3);
  EXPECT_DOUBLE_EQ(m->histogram.sum, 7.0);
  EXPECT_DOUBLE_EQ(m->histogram.min, 1.0);
  EXPECT_DOUBLE_EQ(m->histogram.max, 4.0);
}

TEST(RegistryTest, SnapshotIsSortedByName) {
  Counter z("test/zzz_sorted");
  Counter a("test/aaa_sorted");
  const auto snapshot = Registry::Get().Snapshot();
  std::string prev;
  for (const MetricSnapshot& m : snapshot) {
    EXPECT_LE(prev, m.name);
    prev = m.name;
  }
}

TEST(RegistryTest, TextExpositionFormat) {
  Counter c("test/expo-counter");
  c.Add(3);
  Histogram h("test/expo_hist");
  h.Record(1.0);
  const std::string text = Registry::Get().TextExposition();
  // Names are sanitized ([a-zA-Z0-9_], birnn_ prefix).
  EXPECT_NE(text.find("# TYPE birnn_test_expo_counter counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("birnn_test_expo_counter 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE birnn_test_expo_hist summary\n"),
            std::string::npos);
  EXPECT_NE(text.find("birnn_test_expo_hist{quantile=\"0.5\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("birnn_test_expo_hist_count 1\n"), std::string::npos);
}

TEST(RegistryTest, SanitizeMetricName) {
  EXPECT_EQ(SanitizeMetricName("serve/batcher/cells"),
            "birnn_serve_batcher_cells");
  EXPECT_EQ(SanitizeMetricName("a-b.c"), "birnn_a_b_c");
}

// ------------------------------------------------------------------ tracing

TEST(TraceTest, SpanRecordsDuration) {
  Tracing::Get().Clear();
  const int64_t before = Tracing::Get().EventCount();
  { ScopedSpan span("test/span"); }
  EXPECT_EQ(Tracing::Get().EventCount(), before + 1);
  int tid = -1;
  const auto events = Tracing::Get().ThreadRing(&tid)->Drain();
  ASSERT_GE(tid, 0);
  ASSERT_FALSE(events.empty());
  const TraceEvent& e = events.back();
  EXPECT_STREQ(e.name, "test/span");
  EXPECT_GE(e.ts_ns, 0);
  EXPECT_GE(e.dur_ns, 0);
}

TEST(TraceTest, ChromeJsonIsWellFormed) {
  Tracing::Get().Clear();
  { ScopedSpan span("test/json_span"); }
  const std::string json = Tracing::Get().ChromeTraceJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"test/json_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceTest, RingIsBounded) {
  Tracing::Get().Clear();
  const int64_t n = static_cast<int64_t>(TraceRing::kCapacity) + 100;
  for (int64_t i = 0; i < n; ++i) {
    ScopedSpan span("test/flood");
  }
  const TraceRing* ring = Tracing::Get().ThreadRing(nullptr);
  EXPECT_EQ(ring->Drain().size(), TraceRing::kCapacity);
  EXPECT_GE(ring->dropped(), 100);
}

TEST(TraceTest, ConcurrentSpansFromManyThreads) {
  Tracing::Get().Clear();
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span("test/mt_span");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Every thread has its own ring; nothing dropped, nothing lost.
  EXPECT_GE(Tracing::Get().EventCount(), int64_t{kThreads} * kSpansPerThread);
  const std::string json = Tracing::Get().ChromeTraceJson();
  EXPECT_NE(json.find("test/mt_span"), std::string::npos);
}

// --------------------------------------------------------- runtime disable

TEST(EnabledTest, RuntimeSwitchMutesMacrosAndSpans) {
  ASSERT_TRUE(Enabled());  // default
  SetEnabled(false);
  Tracing::Get().Clear();
  const int64_t before = Tracing::Get().EventCount();
  { ScopedSpan span("test/muted_span"); }
  EXPECT_EQ(Tracing::Get().EventCount(), before);
  // Direct API still records while muted (component-owned stats).
  Counter direct("test/direct_while_muted");
  direct.Add(5);
  EXPECT_EQ(direct.Value(), 5);
  SetEnabled(true);
}

// -------------------------------------------------------------- macro smoke

#if BIRNN_OBS_ENABLED

TEST(MacroTest, MacrosRecordIntoRegistry) {
  OBS_COUNTER_ADD("test/macro_counter", 2);
  OBS_COUNTER_ADD("test/macro_counter", 3);
  OBS_GAUGE_SET("test/macro_gauge", 1.5);
  OBS_HISTOGRAM_RECORD("test/macro_hist", 0.25);
  const auto snapshot = Registry::Get().Snapshot();
  const MetricSnapshot* c = Find(snapshot, "test/macro_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->counter, 5);
  const MetricSnapshot* g = Find(snapshot, "test/macro_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->gauge, 1.5);
  const MetricSnapshot* h = Find(snapshot, "test/macro_hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->histogram.count, 1);
}

TEST(MacroTest, SpanMacroRecordsEvent) {
  Tracing::Get().Clear();
  const int64_t before = Tracing::Get().EventCount();
  {
    OBS_SPAN("test/macro_span");
  }
  EXPECT_EQ(Tracing::Get().EventCount(), before + 1);
}

#else  // !BIRNN_OBS_ENABLED

TEST(MacroTest, MacrosCompileToNothingWhenOff) {
  // Arguments must be syntactically valid yet never evaluated.
  std::atomic<int> evaluated{0};
  const auto touch = [&evaluated] {
    evaluated.fetch_add(1);
    return 1;
  };
  OBS_COUNTER_ADD("test/off_counter", touch());
  OBS_GAUGE_SET("test/off_gauge", touch());
  OBS_HISTOGRAM_RECORD("test/off_hist", touch());
  OBS_SPAN("test/off_span");
  EXPECT_EQ(evaluated.load(), 0);
  EXPECT_EQ(Find(Registry::Get().Snapshot(), "test/off_counter"), nullptr);
}

#endif  // BIRNN_OBS_ENABLED

// -------------------------------------------------- mixed concurrent smoke

TEST(ObsStressTest, MixedWritersUnderContention) {
  // The TSAN target: 8+ threads hammering one counter, one histogram, one
  // gauge and the span rings at once, racing a scraper.
  Counter counter("test/stress_counter");
  Histogram hist("test/stress_hist");
  Gauge gauge("test/stress_gauge");
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<bool> stop{false};
  std::thread scraper([&stop] {
    while (!stop.load()) {
      (void)Registry::Get().Snapshot();
      (void)Registry::Get().TextExposition();
      (void)Tracing::Get().ChromeTraceJson();
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &hist, &gauge] {
      for (int i = 0; i < kIters; ++i) {
        ScopedSpan span("test/stress_span");
        counter.Add(1);
        hist.Record(0.001 * (1 + (i % 7)));
        gauge.Add(1.0);
        gauge.Add(-1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  stop.store(true);
  scraper.join();
  EXPECT_EQ(counter.Value(), int64_t{kThreads} * kIters);
  EXPECT_EQ(hist.Snapshot().count, int64_t{kThreads} * kIters);
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.0);
}

}  // namespace
}  // namespace birnn::obs
