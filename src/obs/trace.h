#ifndef RPG_OBS_TRACE_H_
#define RPG_OBS_TRACE_H_

/// \file
/// Request-scoped tracing and stage timing for the serving path
/// (docs/observability.md). Two cooperating layers:
///
///  - A pipeline trace lives inside core::QueryScratch: RePaGer::Generate
///    records one span per pipeline stage (search, khop, subgraph, ...)
///    into a preallocated SpanSet and copies it onto the RePagerResult,
///    where it is cached together with the result. This is what feeds
///    per-stage latency histograms, the BENCH_table4 stage breakdown, and
///    the `stages` block of /api/path?debug=1.
///  - A request trace (TraceContext) is created per request by the
///    ui::HttpServer reactor and carried by shared_ptr through
///    RePagerService -> ServeEngine -> SolveQueue -> core::SolveQuery,
///    each recording its serving-side span (cache lookup, single-flight
///    wait, batch queue, solve). The solving worker splices the pipeline
///    spans into the request trace (rebased onto the solve span), so a
///    slow-query log line shows the full life of the request.
///
/// Thread-safety model: a TraceContext is NOT internally synchronized.
/// It is touched strictly along the request's causal chain — poller
/// thread at dispatch, solve-queue worker from queue exit through the
/// solve, completion-delivering thread at the end — and every handoff on
/// that chain already carries a happens-before edge (thread-pool queue,
/// flight mutex, completion queue). Never share one context between
/// concurrent requests.
///
/// Cost model: span recording is two steady_clock reads and a bounded
/// array write; the per-request TraceContext is one allocation. The whole
/// layer compiles out with -DRPG_TRACING_DISABLED (CMake -DRPG_TRACING=OFF)
/// and can be switched off at runtime with SetTracingEnabled(false) or
/// RPG_TRACING=0 in the environment; measured overhead on the cache-miss
/// path is gated at overhead_ratio <= 1.05 by
/// scripts/check_bench_regression.py.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "steiner/stats.h"

namespace rpg {
class JsonWriter;
}

namespace rpg::obs {

/// Every stage a request can spend time in. Pipeline stages come first
/// (in execution order inside RePaGer::Generate); serving-layer stages
/// follow.
enum class Stage : uint8_t {
  kSearch = 0,       ///< engine seed retrieval (BM25 + semantic scoring)
  kKhop,             ///< 1st/2nd-order citation-neighborhood expansion
  kSubgraph,         ///< candidate filtering + CSR subgraph assembly
  kSeedRealloc,      ///< seed reallocation + co-occurrence evidence
  kEdgeCost,         ///< weighted-graph build (Eq. 2 edge costs)
  kSteiner,          ///< NEWST Steiner solve
  kReadingPath,      ///< tree -> reading-path construction
  kRank,             ///< ranked candidate-list assembly
  kCacheLookup,      ///< serve: QueryCache probe
  kSingleFlightWait, ///< serve: joined an identical in-flight compute
  kBatchQueue,       ///< serve: admission -> solve-queue worker start
  kSolve,            ///< serve: a worker ran Generate (core::SolveQuery)
};

inline constexpr size_t kNumPipelineStages = 8;
inline constexpr size_t kNumStages = 12;

/// Stable lowercase identifier ("search", "khop", ...) used in JSON,
/// metric names, and the slow-query log.
const char* StageName(Stage stage);

/// The pipeline stages in execution order, for iteration.
inline constexpr Stage kPipelineStages[kNumPipelineStages] = {
    Stage::kSearch,   Stage::kKhop,    Stage::kSubgraph,
    Stage::kSeedRealloc, Stage::kEdgeCost, Stage::kSteiner,
    Stage::kReadingPath, Stage::kRank,
};

#if defined(RPG_TRACING_DISABLED)
inline constexpr bool kTracingCompiledIn = false;
inline bool TracingEnabled() { return false; }
inline void SetTracingEnabled(bool) {}
#else
inline constexpr bool kTracingCompiledIn = true;
/// Runtime kill switch, default on. First read honors the RPG_TRACING
/// environment variable ("0"/"off"/"false" disable). With tracing off no
/// contexts are created and no spans are recorded anywhere.
bool TracingEnabled();
void SetTracingEnabled(bool enabled);
#endif

/// One timed span. Times are nanoseconds relative to the owning
/// context's origin (steady clock), so records stay meaningful when a
/// SpanSet is copied or rebased.
struct SpanRecord {
  Stage stage = Stage::kSearch;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  /// Stage-specific counter: engine hits for search, visited nodes for
  /// khop, settled nodes for steiner, 1/0 hit flag for cache_lookup, ...
  uint64_t value = 0;
};

/// Fixed-capacity, trivially copyable span storage. Lives preallocated
/// inside QueryScratch (pipeline spans) and inside each TraceContext
/// (request spans); copying it onto a RePagerResult is a memcpy.
struct SpanSet {
  static constexpr uint32_t kCapacity = 24;

  SpanRecord spans[kCapacity];
  uint32_t count = 0;
  /// Spans that did not fit (never expected; a debugging tripwire).
  uint32_t dropped = 0;

  void Clear() { count = 0; dropped = 0; }

  void Add(Stage stage, uint64_t start_ns, uint64_t dur_ns, uint64_t value) {
    if (count >= kCapacity) {
      ++dropped;
      return;
    }
    spans[count++] = SpanRecord{stage, start_ns, dur_ns, value};
  }

  /// Sum of span durations for one stage, in milliseconds.
  double StageMs(Stage stage) const;
  /// Sum of all span durations, in milliseconds.
  double TotalMs() const;
};

/// The trace of one request (or of one pipeline run, when embedded in
/// QueryScratch): a 64-bit request id, a monotonic-clock origin, the
/// span records, the canonical query key (set by ServeEngine), and the
/// SteinerStats counters attached to the Steiner span's solve.
class TraceContext {
 public:
  using Clock = std::chrono::steady_clock;

  TraceContext() : origin_(Clock::now()) {}

  /// Process-wide monotonically increasing request ids (atomic counter,
  /// starts at 1).
  static uint64_t NextRequestId();

  /// Rewinds the context for reuse (QueryScratch keeps one across
  /// queries): clears spans, restarts the clock origin, sets the id.
  void Reset(uint64_t request_id);

  uint64_t request_id() const { return request_id_; }
  void set_request_id(uint64_t id) { request_id_ = id; }

  /// Nanoseconds since this context's origin.
  uint64_t NowNs() const;

  void AddSpan(Stage stage, uint64_t start_ns, uint64_t dur_ns,
               uint64_t value = 0) {
    spans_.Add(stage, start_ns, dur_ns, value);
  }

  /// Records a span from two absolute steady-clock points (used by the
  /// solve queue, whose admission timestamp predates its worker's access
  /// to the context). Points before the origin clamp to 0.
  void AddSpanBetween(Stage stage, Clock::time_point start,
                      Clock::time_point end, uint64_t value = 0);

  /// Splices another span set in, shifting every span by `base_ns` —
  /// how a solve's pipeline spans (clocked from the solve's own start)
  /// land at the right offset inside the request trace.
  void AppendRebased(const SpanSet& set, uint64_t base_ns);

  const SpanSet& spans() const { return spans_; }

  void set_query_key(const std::string& key) { query_key_ = key; }
  const std::string& query_key() const { return query_key_; }

  void AttachSteinerStats(const steiner::SteinerStats& stats) {
    steiner_ = stats;
    has_steiner_ = true;
  }
  bool has_steiner_stats() const { return has_steiner_; }
  const steiner::SteinerStats& steiner_stats() const { return steiner_; }

 private:
  SpanSet spans_;
  Clock::time_point origin_;
  uint64_t request_id_ = 0;
  std::string query_key_;
  steiner::SteinerStats steiner_{};
  bool has_steiner_ = false;
};

/// RAII span: records [construction, destruction) into `ctx`. A null
/// context makes it a no-op (and skips the clock reads entirely).
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* ctx, Stage stage) : ctx_(ctx), stage_(stage) {
    if (ctx_ != nullptr) start_ = ctx_->NowNs();
  }
  ~ScopedSpan() {
    if (ctx_ != nullptr) {
      ctx_->AddSpan(stage_, start_, ctx_->NowNs() - start_, value_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_value(uint64_t value) { value_ = value; }

 private:
  TraceContext* ctx_;
  Stage stage_;
  uint64_t start_ = 0;
  uint64_t value_ = 0;
};

/// Emits the spans of `set` as a JSON array value
/// ([{"stage","start_ms","dur_ms","value"},...]) into `w`, which must be
/// in value position.
void AppendSpansJson(const SpanSet& set, JsonWriter* w);

/// One structured slow-query log line (without trailing newline):
///   {"slow_query":{"request_id":...,"query_key":"...","total_ms":...,
///    "threshold_ms":...,"spans":[...],"steiner":{...}?}}
std::string SlowQueryLogLine(const TraceContext& trace, double total_ms,
                             double threshold_ms);

/// Renders SlowQueryLogLine and writes it to stderr in one atomic
/// write(2) (via the logging layer), so concurrent slow-query lines and
/// ordinary log lines never shear into each other.
void EmitSlowQueryLog(const TraceContext& trace, double total_ms,
                      double threshold_ms);

}  // namespace rpg::obs

#endif  // RPG_OBS_TRACE_H_
