#include "serve/metrics.h"

#include <cmath>

#include "common/json_writer.h"
#include "obs/prometheus.h"

namespace rpg::serve {

std::vector<double> LatencyBucketEdgesMs() {
  // 0.0001 ms .. 100000 ms, 4 buckets per decade (x ~1.78 per step).
  std::vector<double> edges;
  for (int i = 0; i <= 36; ++i) {
    edges.push_back(0.0001 * std::pow(10.0, static_cast<double>(i) / 4.0));
  }
  return edges;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &counters_[name];
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &gauges_[name];
}

MetricHistogram* MetricsRegistry::GetHistogram(
    const std::string& name, const std::vector<double>& edges) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::piecewise_construct,
                             std::forward_as_tuple(name),
                             std::forward_as_tuple(edges)).first;
  }
  return &it->second;
}

std::string MetricsRegistry::ToJson() const {
  // Snapshot the instrument sets under the registry lock, then read each
  // instrument through its own synchronization.
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const MetricHistogram*>> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, counter] : counters_) {
      counters.emplace_back(name, &counter);
    }
    for (const auto& [name, gauge] : gauges_) {
      gauges.emplace_back(name, &gauge);
    }
    for (const auto& [name, histogram] : histograms_) {
      histograms.emplace_back(name, &histogram);
    }
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, counter] : counters) {
    w.Key(name).UInt(counter->value());
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges) {
    w.Key(name).Int(gauge->value());
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, histogram] : histograms) {
    Histogram h = histogram->Snapshot();
    w.Key(name).BeginObject();
    w.Key("count").UInt(h.total());
    w.Key("mean").Double(h.mean());
    w.Key("p50").Double(h.Quantile(0.50));
    w.Key("p90").Double(h.Quantile(0.90));
    w.Key("p99").Double(h.Quantile(0.99));
    w.Key("underflow").UInt(h.underflow());
    w.Key("overflow").UInt(h.overflow());
    w.Key("buckets").BeginArray();
    for (size_t i = 0; i < h.num_buckets(); ++i) {
      if (h.bucket_count(i) == 0) continue;  // keep /api/stats compact
      w.BeginObject();
      w.Key("le").Double(h.bucket_upper_edge(i));
      w.Key("label").String(h.BucketLabel(i));
      w.Key("count").UInt(h.bucket_count(i));
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string MetricsRegistry::ToPrometheus(const std::string& prefix) const {
  std::vector<std::pair<std::string, const Counter*>> counters;
  std::vector<std::pair<std::string, const Gauge*>> gauges;
  std::vector<std::pair<std::string, const MetricHistogram*>> histograms;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, counter] : counters_) {
      counters.emplace_back(name, &counter);
    }
    for (const auto& [name, gauge] : gauges_) {
      gauges.emplace_back(name, &gauge);
    }
    for (const auto& [name, histogram] : histograms_) {
      histograms.emplace_back(name, &histogram);
    }
  }
  std::string out;
  for (const auto& [name, counter] : counters) {
    obs::AppendCounter(prefix + "_" + name, counter->value(), &out);
  }
  for (const auto& [name, gauge] : gauges) {
    obs::AppendGauge(prefix + "_" + name,
                     static_cast<double>(gauge->value()), &out);
  }
  for (const auto& [name, histogram] : histograms) {
    obs::AppendHistogram(prefix + "_" + name, histogram->Snapshot(), &out);
  }
  return out;
}

}  // namespace rpg::serve
