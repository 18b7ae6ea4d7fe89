#ifndef RPG_SERVE_SERVE_ENGINE_H_
#define RPG_SERVE_SERVE_ENGINE_H_

/// \file
/// The serving facade: sharded result cache + in-flight request
/// coalescing + a bounded solve queue + live metrics, over an
/// atomically swappable serving epoch (serve::Epoch).
/// ui::RePagerService is a thin route layer on top of this class; see
/// docs/serving.md for the request lifecycle, the epoch lifecycle, and
/// tuning knobs.
///
/// Request lifecycle for GenerateAsync(query, num_seeds, year_cutoff,
/// callback, trace):
///   0. acquire the current epoch ONCE (one shared_ptr copy) — every
///      later step of this request reads that epoch, never the member
///   1. canonical key  = CanonicalQueryKey(...) — case/whitespace
///      normalized, defaults resolved
///   2. QueryCache::Lookup with the epoch id — a positive hit returns
///      the shared immutable result in microseconds; a negative hit
///      returns the remembered error Status without touching the
///      pipeline; a stamp from another epoch is lazily evicted
///   3. in-flight table (keyed by epoch id + canonical key) — an
///      identical same-epoch query already being computed is joined,
///      not recomputed (single-flight)
///   4. SolveQueue::SubmitAsync — admitted (or shed) and solved by the
///      next free worker; the BatchQuery carries the epoch's substrate
///      handle, so the worker solves on the request's epoch even if a
///      flip happened meanwhile
///   5. completed results are inserted into the cache stamped with the
///      request's epoch (deterministic errors as negative entries);
///      every stage increments MetricsRegistry counters/histograms
///
/// Results are bit-identical to serial RePaGer::Generate on the same
/// epoch in every path (cache hit, coalesced, computed) — asserted by
/// tests/serve/serve_engine_test.cc and tests/epoch/epoch_test.cc.
///
/// Ownership / thread-safety model:
///  - The serving substrate is an EpochHandle
///    (shared_ptr<const Epoch>): the engine holds the current one,
///    every in-flight request holds its own, and SwapEpoch replaces the
///    engine's under a mutex. The old epoch frees itself when its last
///    in-flight request completes — RCU by refcount, no drain barrier.
///  - GenerateAsync()/SwapEpoch() are safe from any number
///    of threads. Cached results are shared_ptr<const ...>: never
///    mutated, freely shared across responses.
///  - GenerateAsync never blocks on the solve: the callback fires inline
///    for cache hits and errors, and from the solve-queue worker that
///    solved the query for computed misses. This is the API the epoll
///    reactor (ui::HttpServer) serves from — poller threads submit and
///    return to their event loop.

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/timer.h"
#include "core/repager.h"
#include "serve/epoch.h"
#include "serve/metrics.h"
#include "serve/query_cache.h"
#include "serve/solve_queue.h"

namespace rpg::serve {

struct ServeEngineOptions {
  /// Solve-queue worker threads; <= 0 means hardware_concurrency.
  int num_threads = 0;
  /// Set false to bypass the result cache (every request computes).
  bool enable_cache = true;
  QueryCacheOptions cache;
  SolveQueueOptions queue;
};

/// One served response. `result` is immutable and shared with the cache.
struct ServeResponse {
  CachedResult result;
  /// The epoch this request was answered on. Holding the response keeps
  /// the epoch's whole substrate alive, so renderers may dereference
  /// epoch->titles()/years()/repager() without lifetime caveats.
  EpochHandle epoch;
  /// True when the result came straight from the cache.
  bool cache_hit = false;
  /// True when this request joined an identical in-flight computation.
  bool coalesced = false;
  /// End-to-end seconds inside the engine (queueing + solve, or the
  /// cache lookup time on a hit).
  double e2e_seconds = 0.0;
};

class ServeEngine {
 public:
  /// Completion callback for GenerateAsync. Invoked exactly once: inline
  /// on the calling thread for cache hits / negative hits / inline
  /// errors, or on the solve-queue worker after a computed miss. Must
  /// not block.
  using GenerateCallback = std::function<void(Result<ServeResponse>)>;

  /// Serves from `epoch` until SwapEpoch.
  explicit ServeEngine(EpochHandle epoch, ServeEngineOptions options = {});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Serves one request without blocking: hand off the request, get
  /// the response via `callback`. `num_seeds <= 0` / `year_cutoff <= 0`
  /// mean the pipeline defaults (same canonicalization as the cache
  /// key). Pipeline errors (no hits, empty query, ...) come back as the
  /// Result's status. A non-null `trace` additionally records the
  /// serving-side spans — cache_lookup, singleflight_wait, batch_queue,
  /// solve + the pipeline's stage spans — along the request's causal
  /// chain, and gets the canonical query key stamped onto it.
  void GenerateAsync(const std::string& query, int num_seeds,
                     int year_cutoff, GenerateCallback callback,
                     std::shared_ptr<obs::TraceContext> trace = nullptr);

  /// Installs `next` as the serving epoch (RCU flip). New requests
  /// acquire it immediately; in-flight requests finish on the epoch they
  /// started with, and the old epoch frees itself when the last of them
  /// completes. Cache entries from older epochs are NOT cleared — their
  /// stale stamps are evicted lazily on lookup (QueryCache). Safe from
  /// any thread, including concurrently with serving traffic.
  void SwapEpoch(EpochHandle next);

  /// The epoch new requests would be served on right now (one
  /// shared_ptr copy; never null).
  EpochHandle CurrentEpoch() const;

  /// Number of SwapEpoch calls since construction.
  uint64_t epoch_flips() const;

  /// Drops every cached entry; returns the number of entries dropped.
  size_t ClearCache();

  /// Live stats document for GET /api/stats:
  ///   {"epoch":{...},"cache":{...},"batcher":{...},"stages":{...},
  ///    "metrics":{counters,gauges,histograms}}
  /// The "stages" section attributes solve time to pipeline stages
  /// (count / total_ms / mean_ms / p50..p99 per stage, plus an
  /// `attributed_fraction` of pipeline time covered by stage spans).
  std::string StatsJson() const;

  const QueryCache& cache() const { return cache_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  size_t num_threads() const { return queue_.num_threads(); }

 private:
  struct Flight;

  /// Publishes the outcome: cache (positive entry, or negative for
  /// deterministic errors, stamped with the request's epoch), flight
  /// retirement, coalesced waiters. `cache_key` addresses the cache;
  /// `flight_key` (epoch-qualified) addresses the flights table.
  void PublishOutcome(const std::string& cache_key,
                      const std::string& flight_key, uint64_t epoch_id,
                      const std::shared_ptr<Flight>& flight,
                      const Result<CachedResult>& outcome);

  /// Final per-request bookkeeping (e2e histogram, error counter,
  /// in-flight gauge) + callback invocation. `epoch` is the epoch the
  /// request was served on; it rides out on the ServeResponse.
  void FinishRequest(const GenerateCallback& callback, const Timer& e2e,
                     const EpochHandle& epoch,
                     const Result<CachedResult>& outcome, bool cache_hit,
                     bool coalesced);

  /// Feeds a freshly computed result's stage spans into the per-stage
  /// latency histograms. No-op when the result carries no spans (tracing
  /// compiled out or disabled).
  void ObserveStages(const core::RePagerResult& result);

  ServeEngineOptions options_;
  QueryCache cache_;
  MetricsRegistry metrics_;
  // ~ServeEngine drains and joins the queue before any member is
  // destroyed: its workers' continuations touch the cache, the metrics
  // and the flights table.
  SolveQueue queue_;

  /// The serving epoch. Requests copy the handle once under the mutex
  /// (an uncontended lock + shared_ptr copy, nanoseconds) and never
  /// touch the member again; SwapEpoch replaces it. A mutex-guarded
  /// shared_ptr is the portable TSan-clean equivalent of
  /// std::atomic<std::shared_ptr> here, and this is nowhere near the
  /// per-request hot path's dominant cost.
  mutable std::mutex epoch_mu_;
  EpochHandle epoch_;
  /// Flip bookkeeping (guarded by epoch_mu_): count + wall-clock of the
  /// last SwapEpoch, rendered in /api/stats.
  uint64_t epoch_flips_ = 0;
  int64_t last_reload_unix_ms_ = 0;

  /// Single-flight table: epoch id + canonical key -> the flight every
  /// duplicate concurrent request registers a waiter on. The epoch
  /// qualifier keeps a post-flip request from joining a pre-flip
  /// computation of the same query (their results may differ). The owner
  /// (first requester) erases the entry once the cache is populated.
  std::mutex flights_mu_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;

  // Hot-path instruments, resolved once.
  Counter* requests_total_;
  Counter* cache_hits_;
  Counter* cache_misses_;
  Counter* negative_hits_;
  Counter* coalesced_hits_;
  Counter* errors_total_;
  /// Requests shed by the solve queue's bound (Status::Unavailable →
  /// HTTP 429 at the edge). Counted once per shed computation, not per
  /// coalesced waiter.
  Counter* shed_total_;
  /// Requests expired by the solve queue's deadline
  /// (Status::DeadlineExceeded → HTTP 503 at the edge). Counted once per
  /// expired computation, like shed_total_.
  Counter* deadline_exceeded_total_;
  Gauge* inflight_requests_;
  /// Epoch instruments (also scraped via GET /metrics): the current
  /// epoch id, total SwapEpoch flips, and the Unix time of the last
  /// flip. (Stale-eviction counters live in the cache section of
  /// /api/stats — QueryCacheStats — split by epoch.)
  Gauge* epoch_id_gauge_;
  Counter* epoch_flips_total_;
  Gauge* epoch_last_reload_unix_seconds_;
  MetricHistogram* e2e_ms_;
  MetricHistogram* hit_ms_;
  /// Per-pipeline-stage latency histograms ("stage_<name>_ms"), indexed
  /// by obs::Stage value; observed once per computed (non-cached) result.
  MetricHistogram* stage_ms_[obs::kNumPipelineStages];
  /// Wall time of the whole pipeline per computed result
  /// ("pipeline_total_ms") — the denominator for attributed_fraction.
  MetricHistogram* pipeline_total_ms_;
};

}  // namespace rpg::serve

#endif  // RPG_SERVE_SERVE_ENGINE_H_
