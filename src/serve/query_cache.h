#ifndef RPG_SERVE_QUERY_CACHE_H_
#define RPG_SERVE_QUERY_CACHE_H_

/// \file
/// Sharded LRU cache over completed RePaGer results, the first line of
/// defence in the serving layer (docs/serving.md). Survey-generation
/// traffic is highly repetitive — popular topics dominate — over an
/// immutable citation graph, so a completed RePagerResult never goes
/// stale and can be shared verbatim between requests.
///
/// Negative caching: deterministic failures ("no hits", "empty query")
/// are just as repeatable as successes over the immutable corpus, so
/// the cache can also remember an error Status under the same canonical
/// key (InsertNegative). A negative entry costs a few hundred bytes and
/// spares a full KHop+NEWST attempt per repeat of a hopeless query.
/// Negative hits/insertions/entries are counted separately so
/// `/api/stats` can tell them apart.
///
/// Epoch stamping: "immutable" is per-epoch since the serving tier
/// learned to swap substrates (serve::Epoch). Every entry carries the
/// epoch id it was computed under; Lookup passes the requester's epoch
/// and a stamp mismatch is a miss that ALSO erases the stale entry on
/// the spot (lazy eviction). A flip therefore invalidates the whole
/// cache logically in O(1) — no global clear, no flip-time scan — and
/// the stale population pays for itself one lookup at a time while new
/// entries repopulate. `stale_evictions` plus per-epoch hit/miss splits
/// let /api/stats show a flip's cache cost directly.
///
/// Ownership / thread-safety model:
///  - Entries are std::shared_ptr<const core::RePagerResult>: the cache
///    and any number of in-flight responses share one immutable result;
///    eviction only drops the cache's reference.
///  - The key space is split across N shards (a power of two), each with
///    its own mutex + LRU list, so concurrent lookups on different keys
///    rarely contend. All public methods are safe from any thread.
///  - Capacity is bounded both by entries and by (estimated) bytes;
///    either limit evicts from the LRU tail of the owning shard. Byte
///    accounting is per shard (total/N each), so a single giant entry
///    can only displace its own shard's tail — the usual sharded-LRU
///    approximation.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/repager.h"

namespace rpg::serve {

/// A cached, immutable, shareable pipeline result.
using CachedResult = std::shared_ptr<const core::RePagerResult>;

/// One cached outcome: a shared result (positive entry) or the error
/// Status the same query produced last time (negative entry).
struct CachedValue {
  CachedResult result;           ///< nullptr for negative entries
  Status status = Status::OK();  ///< non-OK for negative entries
  bool negative() const { return result == nullptr; }
};

/// Canonical cache key for a serving request: the query text lowercased
/// with whitespace runs collapsed (the tokenizer is case-insensitive, so
/// "Graph  Neural" and "graph neural" produce bit-identical results —
/// asserted by tests/serve/query_cache_test.cc), joined with the resolved
/// num_seeds and year_cutoff. `num_seeds <= 0` and `year_cutoff <= 0`
/// mean "use the RePagerOptions default", so explicit and implicit
/// defaults share an entry.
std::string CanonicalQueryKey(const std::string& query, int num_seeds,
                              int year_cutoff);

/// Estimated heap footprint of one result (vectors + path), used for the
/// cache's byte accounting. An estimate, not an exact malloc census.
size_t EstimateResultBytes(const core::RePagerResult& result);

struct QueryCacheOptions {
  /// Total byte budget across all shards. 0 disables byte bounding.
  size_t max_bytes = 64ull << 20;
  /// Total entry budget across all shards. 0 disables entry bounding.
  size_t max_entries = 4096;
  /// Shard count; rounded up to a power of two, minimum 1.
  size_t num_shards = 8;
};

/// Hit/miss/stale counters for one epoch id (the per-epoch split of the
/// global counters below). `stale_evictions` is keyed by the EVICTED
/// entry's epoch (whose result went stale), hits/misses by the
/// requesting epoch.
struct EpochCacheStats {
  uint64_t epoch = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stale_evictions = 0;
};

/// Point-in-time counters (sums over all shards). `hits` counts positive
/// hits only; negative hits/insertions have their own counters.
/// `entries`/`bytes` include negative entries; `negative_entries` says
/// how many of them are negative. A stale eviction (epoch-mismatched
/// entry dropped on lookup) counts as both a miss and a stale_eviction,
/// never as an `evictions` (capacity) event.
struct QueryCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t negative_hits = 0;
  uint64_t negative_insertions = 0;
  uint64_t stale_evictions = 0;
  size_t entries = 0;
  size_t negative_entries = 0;
  size_t bytes = 0;
  /// Per-epoch split, ascending by epoch id. Bounded: each shard keeps
  /// the counters of the most recent few epochs only.
  std::vector<EpochCacheStats> by_epoch;
};

class QueryCache {
 public:
  explicit QueryCache(QueryCacheOptions options = {});
  ~QueryCache();

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Returns the cached outcome (positive or negative) and refreshes its
  /// LRU position, or nullopt on miss. An entry whose stamp differs from
  /// `epoch_id` is stale: it is erased immediately (lazy eviction,
  /// counted in stale_evictions) and the lookup is a miss. Counts a hit
  /// or a miss unless `count` is false (used for the serving layer's
  /// post-claim double-check, which would otherwise count every real
  /// miss twice — stale eviction still happens regardless).
  std::optional<CachedValue> Lookup(const std::string& key,
                                    uint64_t epoch_id = 0, bool count = true);

  /// Inserts (or replaces) a positive entry stamped with `epoch_id`,
  /// then evicts from the shard's LRU tail until both capacity limits
  /// hold. An entry larger than a whole shard's byte budget is not
  /// cached at all.
  void Insert(const std::string& key, CachedResult result,
              uint64_t epoch_id = 0);

  /// Remembers a deterministic failure under `key` (no-op when `status`
  /// is OK). Shares the LRU and the capacity budgets with positive
  /// entries.
  void InsertNegative(const std::string& key, const Status& status,
                      uint64_t epoch_id = 0);

  /// Drops every entry (counters are preserved).
  void Clear();

  QueryCacheStats Stats() const;

  size_t num_shards() const;

 private:
  struct Shard;

  void InsertEntry(const std::string& key, CachedResult result,
                   Status status, size_t bytes, uint64_t epoch_id);

  std::unique_ptr<Shard[]> shards_;
  size_t shard_count_;
  size_t shard_max_bytes_;
  size_t shard_max_entries_;
};

}  // namespace rpg::serve

#endif  // RPG_SERVE_QUERY_CACHE_H_
