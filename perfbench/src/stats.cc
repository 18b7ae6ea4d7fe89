#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::optional<Percentile> PercentileOf(std::vector<double>* samples, double p,
                                       size_t min_beyond) {
  const size_t n = samples->size();
  if (n == 0 || p <= 0.0 || p >= 1.0) return std::nullopt;
  // Nearest rank, 1-based: the smallest k with k / n >= p.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(samples->begin(), samples->begin() + (rank - 1),
                   samples->end());
  return Percentile{(*samples)[rank - 1], n, n - rank};
}

std::optional<Percentile> MedianOf(std::vector<double>* samples,
                                   size_t min_beyond) {
  return PercentileOf(samples, 0.5, min_beyond);
}

double PlainMedian(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  auto mid = samples.begin() + samples.size() / 2;
  std::nth_element(samples.begin(), mid, samples.end());
  if (samples.size() % 2 == 1) return *mid;
  double upper = *mid;
  double lower = *std::max_element(samples.begin(), mid);
  return 0.5 * (lower + upper);
}

}  // namespace perfbench
