#include "common/histogram.h"

#include <cmath>
#include <cstdio>

#include "common/logging.h"
#include "common/string_util.h"

namespace rpg {

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  RPG_CHECK(edges_.size() >= 2) << "histogram needs at least one bucket";
  for (size_t i = 1; i < edges_.size(); ++i) {
    RPG_CHECK(edges_[i] > edges_[i - 1]) << "edges must be increasing";
  }
  counts_.assign(edges_.size() - 1, 0);
}

void Histogram::Add(double value) { AddCount(value, 1); }

void Histogram::AddCount(double value, uint64_t count) {
  sum_ += value * static_cast<double>(count);
  n_ += count;
  if (value < edges_.front()) {
    underflow_ += count;
    return;
  }
  if (value >= edges_.back()) {
    overflow_ += count;
    return;
  }
  // Linear scan: bucket counts are small (Fig. 4 uses < 10 buckets).
  for (size_t i = 0; i + 1 < edges_.size(); ++i) {
    if (value < edges_[i + 1]) {
      counts_[i] += count;
      return;
    }
  }
}

uint64_t Histogram::total() const {
  uint64_t t = underflow_ + overflow_;
  for (uint64_t c : counts_) t += c;
  return t;
}

std::string Histogram::BucketLabel(size_t i) const {
  auto fmt = [](double v) {
    if (v == std::floor(v)) {
      return std::to_string(static_cast<int64_t>(v));
    }
    if (std::fabs(v) < 0.01) {
      // Sub-0.01 edges (microsecond latency buckets in ms) keep two
      // significant digits instead of rounding to "0.00".
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2g", v);
      return std::string(buf);
    }
    return FormatDouble(v, 2);
  };
  return fmt(edges_[i]) + "-" + fmt(edges_[i + 1]);
}

double Histogram::BucketFraction(size_t i) const {
  uint64_t t = total();
  if (t == 0) return 0.0;
  return static_cast<double>(counts_[i]) / static_cast<double>(t);
}

double Histogram::mean() const {
  if (n_ == 0) return 0.0;
  return sum_ / static_cast<double>(n_);
}

double Histogram::Quantile(double q) const {
  uint64_t t = total();
  if (t == 0) return 0.0;
  // One observation: every quantile IS that observation. (n_ counts
  // Add calls; with a single call the exact value survives in sum_,
  // so return it instead of smearing it across its bucket.)
  if (t == 1 && n_ == 1) return sum_;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  double rank = q * static_cast<double>(t);
  double seen = static_cast<double>(underflow_);
  if (rank <= seen) return edges_.front();
  for (size_t i = 0; i < counts_.size(); ++i) {
    double c = static_cast<double>(counts_[i]);
    if (rank <= seen + c && c > 0) {
      double frac = (rank - seen) / c;
      return edges_[i] + frac * (edges_[i + 1] - edges_[i]);
    }
    seen += c;
  }
  return edges_.back();
}

}  // namespace rpg
