#include "serve/serve_engine.h"

#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/logging.h"

namespace rpg::serve {

/// Single-flight slot: the first requester (owner) computes; duplicates
/// register a completion waiter. The slot outlives its table entry via
/// shared_ptr, so the owner can deliver waiters after erasing the entry.
struct ServeEngine::Flight {
  using Waiter = std::function<void(const Result<CachedResult>&)>;

  std::mutex mu;
  bool done = false;
  /// Valid once `done`; late joiners that find the flight already done
  /// complete inline from this copy.
  Result<CachedResult> outcome{Status::Internal("flight not finished")};
  std::vector<Waiter> waiters;
};

namespace {

/// Deterministic pipeline failures (no hits for the query, bad
/// arguments) are cacheable: the immutable corpus guarantees the same
/// query fails the same way tomorrow. Transient statuses (shutdown,
/// internal) must retry.
bool IsCacheableError(const Status& status) {
  return status.IsNotFound() || status.IsInvalidArgument();
}

}  // namespace

ServeEngine::ServeEngine(EpochHandle epoch, ServeEngineOptions options)
    : options_(options),
      cache_(options.cache),
      queue_(options.num_threads, options.queue),
      epoch_(std::move(epoch)),
      requests_total_(metrics_.GetCounter("requests_total")),
      cache_hits_(metrics_.GetCounter("cache_hits")),
      cache_misses_(metrics_.GetCounter("cache_misses")),
      negative_hits_(metrics_.GetCounter("negative_hits")),
      coalesced_hits_(metrics_.GetCounter("coalesced_hits")),
      errors_total_(metrics_.GetCounter("errors_total")),
      shed_total_(metrics_.GetCounter("shed_total")),
      deadline_exceeded_total_(metrics_.GetCounter("deadline_exceeded_total")),
      inflight_requests_(metrics_.GetGauge("inflight_requests")),
      epoch_id_gauge_(metrics_.GetGauge("epoch_id")),
      epoch_flips_total_(metrics_.GetCounter("epoch_flips_total")),
      epoch_last_reload_unix_seconds_(
          metrics_.GetGauge("epoch_last_reload_unix_seconds")),
      e2e_ms_(metrics_.GetHistogram("e2e_ms", LatencyBucketEdgesMs())),
      hit_ms_(metrics_.GetHistogram("cache_hit_ms", LatencyBucketEdgesMs())),
      pipeline_total_ms_(
          metrics_.GetHistogram("pipeline_total_ms", LatencyBucketEdgesMs())) {
  RPG_CHECK(epoch_ != nullptr);
  epoch_id_gauge_->Set(static_cast<int64_t>(epoch_->id()));
  for (size_t i = 0; i < obs::kNumPipelineStages; ++i) {
    stage_ms_[i] = metrics_.GetHistogram(
        std::string("stage_") + obs::StageName(obs::kPipelineStages[i]) + "_ms",
        LatencyBucketEdgesMs());
  }
}

ServeEngine::~ServeEngine() { queue_.Shutdown(); }

void ServeEngine::GenerateAsync(const std::string& query, int num_seeds,
                                int year_cutoff, GenerateCallback callback,
                                std::shared_ptr<obs::TraceContext> trace) {
  Timer e2e;
  requests_total_->Increment();
  inflight_requests_->Add(1);
  // The RCU read: acquire the serving epoch exactly once. Everything
  // below — cache stamp, flight key, substrate handle, response — uses
  // this copy, so a concurrent SwapEpoch cannot split the request
  // across two generations.
  EpochHandle epoch = CurrentEpoch();
  const uint64_t eid = epoch->id();
  const std::string key = CanonicalQueryKey(query, num_seeds, year_cutoff);
  if (trace) trace->set_query_key(key);

  if (options_.enable_cache) {
    uint64_t lookup_start = trace ? trace->NowNs() : 0;
    std::optional<CachedValue> hit = cache_.Lookup(key, eid);
    if (trace) {
      trace->AddSpan(obs::Stage::kCacheLookup, lookup_start,
                     trace->NowNs() - lookup_start, hit ? 1 : 0);
    }
    if (hit) {
      if (hit->negative()) {
        negative_hits_->Increment();
        FinishRequest(callback, e2e, epoch, Result<CachedResult>(hit->status),
                      /*cache_hit=*/true, /*coalesced=*/false);
        return;
      }
      cache_hits_->Increment();
      hit_ms_->Observe(e2e.ElapsedSeconds() * 1e3);
      FinishRequest(callback, e2e, epoch,
                    Result<CachedResult>(std::move(hit->result)),
                    /*cache_hit=*/true, /*coalesced=*/false);
      return;
    }
    cache_misses_->Increment();
  }

  // Single-flight admission: exactly one requester per (epoch,
  // canonical key) computes; everyone else registers a waiter on its
  // flight. The epoch qualifier keeps a post-flip request from joining
  // a pre-flip computation whose result would come from the old graph.
  const std::string flight_key = std::to_string(eid) + '\x1f' + key;
  std::shared_ptr<Flight> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(flight_key);
    if (it != flights_.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<Flight>();
      flights_.emplace(flight_key, flight);
      owner = true;
    }
  }

  if (!owner) {
    coalesced_hits_->Increment();
    // The waiter fires on whichever thread retires the flight (owner's
    // continuation) — that thread is the tail of this request's causal
    // chain, so writing the wait span there is race-free.
    uint64_t wait_start = trace ? trace->NowNs() : 0;
    auto waiter = [this, callback = std::move(callback), e2e, epoch,
                   trace = std::move(trace),
                   wait_start](const Result<CachedResult>& outcome) {
      if (trace) {
        trace->AddSpan(obs::Stage::kSingleFlightWait, wait_start,
                       trace->NowNs() - wait_start, outcome.ok() ? 1 : 0);
      }
      FinishRequest(callback, e2e, epoch, outcome, /*cache_hit=*/false,
                    /*coalesced=*/true);
    };
    bool already_done = false;
    {
      std::lock_guard<std::mutex> lock(flight->mu);
      if (flight->done) {
        already_done = true;
      } else {
        flight->waiters.push_back(waiter);
      }
    }
    // The flight finished between our table lookup and the registration:
    // complete inline from its stored outcome (never under flight->mu —
    // the callback is arbitrary user code).
    if (already_done) waiter(flight->outcome);
    return;
  }

  // Post-claim double-check: if another owner inserted the entry between
  // our miss and our claim (insert happens-before flight retirement,
  // which happens-before our claim), serve it instead of recomputing —
  // single-flight stays airtight even across flight generations.
  if (options_.enable_cache) {
    if (std::optional<CachedValue> hit =
            cache_.Lookup(key, eid, /*count=*/false)) {
      Result<CachedResult> resolved =
          hit->negative() ? Result<CachedResult>(hit->status)
                          : Result<CachedResult>(std::move(hit->result));
      PublishOutcome(key, flight_key, eid, flight, resolved);
      FinishRequest(callback, e2e, epoch, resolved, /*cache_hit=*/true,
                    /*coalesced=*/false);
      return;
    }
  }

  core::BatchQuery bq;
  bq.query = query;
  if (num_seeds > 0) bq.options.num_initial_seeds = num_seeds;
  if (year_cutoff > 0) bq.options.year_cutoff = year_cutoff;
  bq.trace = trace;
  // Pin the substrate: the worker solves on THIS request's epoch no
  // matter how many flips happen while the query sits in the solve
  // queue, and the aliasing handle keeps the epoch alive through the
  // solve.
  bq.repager = Epoch::RepagerHandle(epoch);
  // No thread blocks here: the continuation runs on the queue worker
  // that solves this query.
  queue_.SubmitAsync(
      std::move(bq),
      [this, key, flight_key, eid, epoch = std::move(epoch), flight,
       callback = std::move(callback),
       e2e](Result<core::RePagerResult> computed) {
        if (!computed.ok() && computed.status().IsUnavailable()) {
          shed_total_->Increment();
        }
        if (!computed.ok() && computed.status().IsDeadlineExceeded()) {
          deadline_exceeded_total_->Increment();
        }
        if (computed.ok()) ObserveStages(*computed);
        Result<CachedResult> outcome =
            computed.ok()
                ? Result<CachedResult>(
                      std::make_shared<const core::RePagerResult>(
                          std::move(computed).value()))
                : Result<CachedResult>(computed.status());
        PublishOutcome(key, flight_key, eid, flight, outcome);
        FinishRequest(callback, e2e, epoch, outcome, /*cache_hit=*/false,
                      /*coalesced=*/false);
      });
}

void ServeEngine::ObserveStages(const core::RePagerResult& result) {
  const obs::SpanSet& stages = result.stages;
  if (stages.count == 0) return;
  for (uint32_t i = 0; i < stages.count; ++i) {
    const obs::SpanRecord& s = stages.spans[i];
    const auto idx = static_cast<size_t>(s.stage);
    if (idx < obs::kNumPipelineStages) {
      stage_ms_[idx]->Observe(static_cast<double>(s.dur_ns) / 1e6);
    }
  }
  pipeline_total_ms_->Observe(result.total_seconds * 1e3);
}

void ServeEngine::PublishOutcome(const std::string& cache_key,
                                 const std::string& flight_key,
                                 uint64_t epoch_id,
                                 const std::shared_ptr<Flight>& flight,
                                 const Result<CachedResult>& outcome) {
  // Publish to the cache BEFORE retiring the flight: a request arriving
  // in between sees either the cache entry or the in-flight flight —
  // never a gap that would trigger a duplicate computation. The entry
  // is stamped with the epoch it was computed on; if a flip landed
  // while we were computing, the stamp is already stale and the first
  // post-flip lookup evicts it.
  if (options_.enable_cache) {
    if (outcome.ok()) {
      cache_.Insert(cache_key, outcome.value(), epoch_id);
    } else if (IsCacheableError(outcome.status())) {
      cache_.InsertNegative(cache_key, outcome.status(), epoch_id);
    }
  }
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    flights_.erase(flight_key);
  }
  std::vector<Flight::Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->done = true;
    flight->outcome = outcome;
    waiters.swap(flight->waiters);
  }
  for (const Flight::Waiter& waiter : waiters) waiter(outcome);
}

void ServeEngine::FinishRequest(const GenerateCallback& callback,
                                const Timer& e2e, const EpochHandle& epoch,
                                const Result<CachedResult>& outcome,
                                bool cache_hit, bool coalesced) {
  double seconds = e2e.ElapsedSeconds();
  e2e_ms_->Observe(seconds * 1e3);
  inflight_requests_->Add(-1);
  if (!outcome.ok()) {
    errors_total_->Increment();
    callback(outcome.status());
    return;
  }
  ServeResponse response;
  response.result = outcome.value();
  response.epoch = epoch;
  response.cache_hit = cache_hit;
  response.coalesced = coalesced;
  response.e2e_seconds = seconds;
  callback(std::move(response));
}

EpochHandle ServeEngine::CurrentEpoch() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_;
}

uint64_t ServeEngine::epoch_flips() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return epoch_flips_;
}

void ServeEngine::SwapEpoch(EpochHandle next) {
  RPG_CHECK(next != nullptr);
  const int64_t now_ms = next->info().loaded_unix_ms;
  EpochHandle previous;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    previous = std::move(epoch_);  // destroyed outside the lock
    epoch_ = std::move(next);
    ++epoch_flips_;
    last_reload_unix_ms_ = now_ms;
    epoch_id_gauge_->Set(static_cast<int64_t>(epoch_->id()));
    epoch_last_reload_unix_seconds_->Set(now_ms / 1000);
  }
  epoch_flips_total_->Increment();
  RPG_LOG(Info) << "epoch flip -> id " << CurrentEpoch()->id()
                << " (in-flight requests drain on their own epoch)";
  // `previous` drops here. If this was the last reference the old
  // substrate frees now; otherwise the final in-flight request's
  // response destroys it. Either way: never under epoch_mu_.
}

size_t ServeEngine::ClearCache() {
  size_t entries = cache_.Stats().entries;
  cache_.Clear();
  return entries;
}

std::string ServeEngine::StatsJson() const {
  QueryCacheStats cs = cache_.Stats();
  SolveQueueStats qs = queue_.Stats();
  EpochHandle epoch;
  uint64_t flips = 0;
  int64_t last_reload_ms = 0;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    epoch = epoch_;
    flips = epoch_flips_;
    last_reload_ms = last_reload_unix_ms_;
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("epoch").BeginObject();
  w.Key("id").UInt(epoch->id());
  w.Key("flips").UInt(flips);
  w.Key("last_reload_unix_ms").Int(last_reload_ms);
  w.Key("source").String(epoch->info().source);
  w.Key("loaded_unix_ms").Int(epoch->info().loaded_unix_ms);
  w.Key("load_seconds").Double(epoch->info().load_seconds);
  w.Key("num_papers").UInt(epoch->info().num_papers);
  w.Key("num_edges").UInt(epoch->info().num_edges);
  w.EndObject();
  w.Key("cache").BeginObject();
  w.Key("enabled").Bool(options_.enable_cache);
  w.Key("entries").UInt(cs.entries);
  w.Key("bytes").UInt(cs.bytes);
  w.Key("hits").UInt(cs.hits);
  w.Key("misses").UInt(cs.misses);
  w.Key("insertions").UInt(cs.insertions);
  w.Key("evictions").UInt(cs.evictions);
  w.Key("negative_entries").UInt(cs.negative_entries);
  w.Key("negative_hits").UInt(cs.negative_hits);
  w.Key("negative_insertions").UInt(cs.negative_insertions);
  w.Key("stale_evictions").UInt(cs.stale_evictions);
  // Hit/miss/stale split by epoch id: after a flip this shows the old
  // epoch's entries draining (stale_evictions) while the new epoch's
  // hit rate recovers — the lazy-invalidation story in one section.
  w.Key("by_epoch").BeginArray();
  for (const EpochCacheStats& e : cs.by_epoch) {
    w.BeginObject();
    w.Key("epoch").UInt(e.epoch);
    w.Key("hits").UInt(e.hits);
    w.Key("misses").UInt(e.misses);
    w.Key("stale_evictions").UInt(e.stale_evictions);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  // The solve queue's section keeps its historical name and keys:
  // "batches" counts solves started, one query each.
  w.Key("batcher").BeginObject();
  w.Key("requests").UInt(qs.requests);
  w.Key("batches").UInt(qs.solves);
  w.Key("queue_depth").UInt(qs.queue_depth);
  w.Key("max_queue_depth").UInt(options_.queue.max_queue_depth);
  w.Key("rejected_overload").UInt(qs.rejected_overload);
  w.Key("deadline_expired").UInt(qs.deadline_expired);
  w.Key("queue_deadline_ms")
      .UInt(static_cast<uint64_t>(
          options_.queue.queue_deadline.count() < 0
              ? 0
              : options_.queue.queue_deadline.count()));
  w.Key("ewma_item_seconds").Double(qs.ewma_solve_seconds);
  w.Key("threads").UInt(queue_.num_threads());
  w.EndObject();
  // Per-stage latency attribution over computed (non-cached) results.
  // attributed_fraction = stage-span time / pipeline wall time: how much
  // of the solve the spans account for (gated >= 0.9 by the bench suite).
  w.Key("stages").BeginObject();
  double stage_sum_ms = 0.0;
  for (size_t i = 0; i < obs::kNumPipelineStages; ++i) {
    Histogram h = stage_ms_[i]->Snapshot();
    stage_sum_ms += h.sum();
    w.Key(obs::StageName(obs::kPipelineStages[i])).BeginObject();
    w.Key("count").UInt(h.total());
    w.Key("total_ms").Double(h.sum());
    w.Key("mean_ms").Double(h.mean());
    w.Key("p50_ms").Double(h.Quantile(0.50));
    w.Key("p90_ms").Double(h.Quantile(0.90));
    w.Key("p99_ms").Double(h.Quantile(0.99));
    w.EndObject();
  }
  Histogram pipeline = pipeline_total_ms_->Snapshot();
  w.Key("pipeline").BeginObject();
  w.Key("count").UInt(pipeline.total());
  w.Key("total_ms").Double(pipeline.sum());
  w.Key("mean_ms").Double(pipeline.mean());
  w.Key("p50_ms").Double(pipeline.Quantile(0.50));
  w.Key("p90_ms").Double(pipeline.Quantile(0.90));
  w.Key("p99_ms").Double(pipeline.Quantile(0.99));
  w.EndObject();
  w.Key("attributed_fraction")
      .Double(pipeline.sum() > 0 ? stage_sum_ms / pipeline.sum() : 0.0);
  w.EndObject();
  w.Key("metrics").Raw(metrics_.ToJson());
  w.EndObject();
  return w.str();
}

}  // namespace rpg::serve
