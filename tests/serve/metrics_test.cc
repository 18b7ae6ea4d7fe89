#include "serve/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace rpg::serve {
namespace {

TEST(HistogramQuantileTest, UniformMassInterpolates) {
  Histogram h({0.0, 10.0, 20.0, 30.0});
  for (int v = 0; v < 10; ++v) h.Add(static_cast<double>(v));       // 10 in b0
  for (int v = 10; v < 20; ++v) h.Add(static_cast<double>(v));      // 10 in b1
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.25), 5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 20.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
}

TEST(HistogramQuantileTest, EmptyAndClampedTails) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // empty
  h.Add(0.5);                       // underflow
  h.Add(5.0);                       // overflow
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 2.0);
}

TEST(MetricsRegistryTest, CountersAreStableAndCumulative) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("a");
  a->Increment();
  a->Increment(4);
  EXPECT_EQ(registry.GetCounter("a"), a);  // same instrument
  EXPECT_EQ(a->value(), 5u);
  EXPECT_EQ(registry.GetCounter("b")->value(), 0u);
}

TEST(MetricsRegistryTest, GaugesGoUpAndDown) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("open_connections");
  g->Add(3);
  g->Add(-1);
  EXPECT_EQ(registry.GetGauge("open_connections"), g);  // same instrument
  EXPECT_EQ(g->value(), 2);
  g->Set(-5);  // gauges are signed
  EXPECT_EQ(g->value(), -5);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"gauges\":{\"open_connections\":-5}"),
            std::string::npos);
}

TEST(MetricsRegistryTest, HistogramObserveAndSnapshot) {
  MetricsRegistry registry;
  MetricHistogram* h = registry.GetHistogram("lat", {0.0, 1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  Histogram snapshot = h->Snapshot();
  EXPECT_EQ(snapshot.total(), 2u);
  EXPECT_EQ(snapshot.bucket_count(0), 1u);
  EXPECT_EQ(snapshot.bucket_count(1), 1u);
}

TEST(MetricsRegistryTest, JsonContainsAllInstruments) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total")->Increment(3);
  registry.GetHistogram("e2e_ms", LatencyBucketEdgesMs())->Observe(2.5);
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"requests_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"e2e_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"le\":"), std::string::npos);  // numeric bucket edge
}

TEST(MetricsRegistryTest, ConcurrentIncrementsDontLose) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  MetricHistogram* h = registry.GetHistogram("h", {0.0, 100.0});
  constexpr int kThreads = 8, kOps = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        c->Increment();
        h->Observe(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_EQ(h->Snapshot().total(), static_cast<uint64_t>(kThreads) * kOps);
}

TEST(LatencyBucketsTest, EdgesCoverMicrosecondsToMinutes) {
  std::vector<double> edges = LatencyBucketEdgesMs();
  EXPECT_LE(edges.front(), 0.01);
  EXPECT_GE(edges.back(), 100000.0 - 1.0);
  for (size_t i = 1; i < edges.size(); ++i) EXPECT_GT(edges[i], edges[i - 1]);
}

// A cache hit takes about a microsecond: it must land in a real bucket,
// not the underflow, so its p50 reports the observation instead of the
// histogram's floor.
TEST(LatencyBucketsTest, MicrosecondObservationLandsInABucket) {
  Histogram h(LatencyBucketEdgesMs());
  h.Add(0.001);  // 1 µs in ms
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_LT(h.Quantile(0.5), 0.01);
  EXPECT_GT(h.Quantile(0.5), 0.0);
}

// Regression pins for the Quantile edge cases (docs/observability.md):
// an empty histogram must answer 0 for every q (not NaN or an edge), and
// a single observation must come back exactly (no within-bucket
// interpolation pretending precision the data doesn't have).
TEST(HistogramQuantileTest, EmptyHistogramReturnsZeroForEveryQuantile) {
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.Quantile(0.0), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(0.99), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
}

TEST(HistogramQuantileTest, SingleObservationReturnsTheObservation) {
  Histogram h({0.0, 10.0, 100.0});
  h.Add(3.7);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 3.7);
  // Multiple observations at the same value must NOT take the exact
  // path (q=1 with 3 samples interpolates inside the bucket as before).
  Histogram multi({0.0, 10.0, 100.0});
  multi.AddCount(3.7, 3);
  EXPECT_DOUBLE_EQ(multi.Quantile(1.0), 10.0);
}

TEST(MetricsRegistryTest, HistogramNamesAreJsonEscaped) {
  MetricsRegistry registry;
  // A hostile / accidental name with JSON-significant characters must
  // come out escaped, or /api/stats stops parsing.
  registry.GetHistogram("odd\"name\\with\ncontrol", {0.0, 1.0})->Observe(0.5);
  registry.GetCounter("quote\"counter")->Increment();
  std::string json = registry.ToJson();
  EXPECT_NE(json.find("odd\\\"name\\\\with\\ncontrol"), std::string::npos);
  EXPECT_NE(json.find("quote\\\"counter"), std::string::npos);
  EXPECT_EQ(json.find("odd\"name"), std::string::npos);  // no raw quote
}

TEST(MetricsRegistryTest, ToPrometheusRendersAllInstrumentFamilies) {
  MetricsRegistry registry;
  registry.GetCounter("requests_total")->Increment(3);
  registry.GetGauge("inflight")->Set(-2);
  MetricHistogram* h = registry.GetHistogram("e2e_ms", {0.0, 1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(50.0);  // overflow
  std::string text = registry.ToPrometheus("rpg");
  EXPECT_NE(text.find("# TYPE rpg_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("rpg_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rpg_inflight gauge\n"), std::string::npos);
  EXPECT_NE(text.find("rpg_inflight -2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rpg_e2e_ms histogram\n"), std::string::npos);
  // Cumulative buckets: le="1" holds everything <= 1 (the 0.5 sample),
  // le="10" adds the 5.0 sample, +Inf equals _count.
  EXPECT_NE(text.find("rpg_e2e_ms_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("rpg_e2e_ms_bucket{le=\"10\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("rpg_e2e_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("rpg_e2e_ms_sum 55.5\n"), std::string::npos);
  EXPECT_NE(text.find("rpg_e2e_ms_count 3\n"), std::string::npos);
}

TEST(MetricsRegistryTest, ToPrometheusSanitizesHostileNames) {
  MetricsRegistry registry;
  registry.GetCounter("weird name-with.dots")->Increment();
  std::string text = registry.ToPrometheus("rpg");
  EXPECT_NE(text.find("rpg_weird_name_with_dots 1\n"), std::string::npos);
}

}  // namespace
}  // namespace rpg::serve
