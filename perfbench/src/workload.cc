#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <unordered_set>

#include "common/rng.h"
#include "serve/query_cache.h"

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  // Rates sit well below the measured capacity of the default server on
  // the one CPU the end-to-end run gives it, so no backlog builds; the
  // limits sit near the workload's p99 there, so slo_met_frac moves when
  // the tail does. unique_misses sends 39.5 req/s in 6 s windows: a window
  // holds one round of UniqueMissKeys over the 237 SurveyBank queries, so
  // every window sends the same work. At twice the rate a shared host that
  // lends the run less CPU builds queues, and the run-to-run spread of the
  // tail more than doubled.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {WorkloadKind::kHotHits, "hot_hits", /*open_loop=*/false,
       /*read_connections=*/1, /*rate_rps=*/0.0, /*reload_interval_s=*/0.0,
       /*slo_ms=*/1.0, /*window_s=*/1.0},
      {WorkloadKind::kUniqueMisses, "unique_misses", true, 4, 39.5, 0.0,
       30.0, 6.0},
      {WorkloadKind::kReloadChurn, "reload_churn", true, 3, 150.0, 2.5,
       100.0, 0.0},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string PathTarget(const PathKey& key, uint64_t rid) {
  std::string target = "/api/path?q=";
  for (unsigned char c : key.query) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.') {
      target += static_cast<char>(c);
    } else if (c == ' ') {
      target += '+';
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      target += buf;
    }
  }
  if (key.seeds > 0) target += "&seeds=" + std::to_string(key.seeds);
  target += "&year=" + std::to_string(key.year);
  if (rid != 0) target += "&rid=" + std::to_string(rid);
  return target;
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream).
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

/// `base` without entries the server would treat as the same request (its
/// cache key folds case and whitespace).
std::vector<PathKey> DistinctForServer(const std::vector<PathKey>& base) {
  std::vector<PathKey> keys;
  std::unordered_set<std::string> seen;
  for (const PathKey& k : base) {
    if (seen.insert(rpg::serve::CanonicalQueryKey(k.query, k.seeds, k.year))
            .second) {
      keys.push_back(k);
    }
  }
  return keys;
}

}  // namespace

std::vector<PathKey> HotKeys(const std::vector<PathKey>& base) {
  return DistinctForServer(base);
}

std::vector<PathKey> UniqueMissKeys(const std::vector<PathKey>& base,
                                    size_t count, uint64_t seed) {
  std::vector<PathKey> queries = DistinctForServer(base);
  const size_t span = kMaxSeeds - kMinSeeds + 1;
  count = std::min(count, queries.size() * span);
  rpg::Rng rng(StreamSeed(seed, 2));
  std::vector<size_t> order(queries.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<PathKey> keys;
  keys.reserve(count);
  for (size_t round = 0; keys.size() < count; ++round) {
    rng.Shuffle(&order);
    for (size_t i = 0; i < order.size() && keys.size() < count; ++i) {
      // Query q's value steps by 5 (coprime to the 41 values) each round,
      // so it never repeats; the offset 17 q spreads one round's values
      // evenly over the range.
      const size_t q = order[i];
      PathKey k = queries[q];
      k.seeds = kMinSeeds + static_cast<int>((17 * q + 5 * round) % span);
      keys.push_back(std::move(k));
    }
  }
  return keys;
}

std::vector<uint32_t> ZipfSequence(size_t num_keys, size_t count,
                                   uint64_t seed) {
  rpg::Rng rng(StreamSeed(seed, 3));
  std::vector<uint32_t> ranks(count);
  for (uint32_t& r : ranks) {
    r = static_cast<uint32_t>(rng.Zipf(num_keys, kZipfS) - 1);
  }
  return ranks;
}

std::vector<double> EvenSchedule(double rate_rps, double seconds) {
  std::vector<double> due;
  if (rate_rps <= 0.0 || seconds <= 0.0) return due;
  const size_t n = static_cast<size_t>(rate_rps * seconds);
  due.reserve(n);
  for (size_t i = 0; i < n; ++i) due.push_back(static_cast<double>(i) / rate_rps);
  return due;
}

}  // namespace perfbench
