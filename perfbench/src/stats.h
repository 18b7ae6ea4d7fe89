#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/// \file
/// Summary statistics with the benchmark's reporting rule: a percentile is
/// reported only when at least `kMinBeyond` samples lie beyond it, so a p99
/// needs 1000 samples and a median needs 20. Every summary carries its
/// sample count.

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr size_t kMinBeyond = 10;

/// A nearest-rank percentile and the counts that justify it.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;  ///< total sample count
  size_t beyond = 0;   ///< samples ranked above the reported one
};

/// Nearest-rank `p`-quantile (0 < p < 1) of `samples`, or nullopt when
/// fewer than `min_beyond` samples rank above it. `samples` is sorted in
/// place.
std::optional<Percentile> PercentileOf(std::vector<double>* samples, double p,
                                       size_t min_beyond = kMinBeyond);

/// Median with the same rule (nullopt below 2 * min_beyond samples).
std::optional<Percentile> MedianOf(std::vector<double>* samples,
                                   size_t min_beyond = kMinBeyond);

/// Plain median, no sample rule (0 when empty). For per-layer numbers that
/// are reported with their count instead.
double PlainMedian(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
