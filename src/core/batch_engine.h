#ifndef RPG_CORE_BATCH_ENGINE_H_
#define RPG_CORE_BATCH_ENGINE_H_

/// \file
/// Batched parallel query engine for RePaGer. The paper's serving
/// scenario is many independent survey queries against one immutable
/// citation graph — embarrassingly parallel — so BatchEngine fans a batch
/// of queries across a fixed-size ThreadPool, each worker reusing one
/// core::QueryScratch so per-query allocations drop to near zero after
/// warm-up (the dominant cost now that the NEWST solver is fast; see
/// ROADMAP "Perf — Steiner hot path").
///
/// SolveQuery() is the per-query body shared by Run() and the serving
/// tier's serve::SolveQueue workers, so batch and online solves record
/// the same spans and produce the same bytes.
///
/// Ownership / thread-safety model:
///  - Every query names its RePaGer (and, through it, the CitationGraph,
///    SearchEngine and WeightModel): BatchQuery::repager is an owning
///    shared_ptr (an epoch handle alias in serving) that keeps its
///    substrate alive by itself. Substrates are immutable and read
///    concurrently by all workers.
///  - Each pool worker owns one QueryScratch for the duration of a
///    Run(); scratches are never shared between threads.
///  - Run() may be called repeatedly (the pool persists across batches)
///    but not concurrently from multiple threads on the same BatchEngine.
///  - Per-query results are bit-identical to calling
///    RePaGer::Generate() serially — verified by
///    tests/core/batch_engine_test.cc.

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/repager.h"
#include "steiner/stats.h"

namespace rpg::core {

/// One query in a batch: the free-text query plus its pipeline options.
struct BatchQuery {
  std::string query;
  RePagerOptions options;
  /// Optional request trace (shared with the serving layer). The worker
  /// that executes this query records a `solve` span and splices the
  /// pipeline's stage spans into it. The shared_ptr keeps the context
  /// alive even if the originating request was already answered (e.g. a
  /// reactor-side deadline 503).
  std::shared_ptr<obs::TraceContext> trace;
  /// The substrate this query runs on (required). Epoch-based serving
  /// (serve::Epoch) pins the request's epoch here with an aliasing
  /// shared_ptr, so the substrate the worker reads stays alive until
  /// this query's result is delivered even if the serving tier swapped
  /// to a newer epoch mid-batch.
  std::shared_ptr<const RePaGer> repager;
};

/// Result of a batch run. `results[i]` corresponds to `queries[i]` —
/// per-query failures (empty query, no hits, ...) land in their slot
/// without affecting the rest of the batch.
struct BatchResult {
  std::vector<Result<RePagerResult>> results;
  /// Number of queries that produced a RePagerResult.
  size_t num_ok = 0;
  /// Wall-clock seconds for the whole batch (the throughput number).
  double wall_seconds = 0.0;
  /// Sum of per-query total_seconds over successful queries — compare
  /// against wall_seconds to see the parallel speedup.
  double sum_query_seconds = 0.0;
  /// NEWST work counters summed over successful queries.
  steiner::SteinerStats steiner_stats;
};

/// Solves one query on `scratch`: runs Generate on the query's own
/// substrate and, when the query carries a request trace, records a
/// `solve` span and splices the pipeline's stage spans into it (rebased
/// onto the solve span). The query must carry its `repager`; `scratch`
/// must not be shared with a concurrent solve.
Result<RePagerResult> SolveQuery(const BatchQuery& query,
                                 QueryScratch* scratch);

/// Worker count for `requested` threads: itself when positive, else
/// std::thread::hardware_concurrency() (at least 1).
size_t ResolveThreads(int requested);

struct BatchEngineOptions {
  /// Worker threads; <= 0 means std::thread::hardware_concurrency().
  int num_threads = 0;
};

/// Runs batches of independent RePaGer queries on a worker pool.
class BatchEngine {
 public:
  /// Spawns the pool immediately.
  explicit BatchEngine(BatchEngineOptions options = {});

  /// Executes all queries and blocks until the batch is complete. Every
  /// query must carry its `repager` (RPG_CHECK). Query order in the
  /// result matches the input; scheduling order across workers is
  /// unspecified (results are order-independent).
  BatchResult Run(const std::vector<BatchQuery>& queries);

  size_t num_threads() const { return pool_.num_threads(); }

 private:
  ThreadPool pool_;
};

}  // namespace rpg::core

#endif  // RPG_CORE_BATCH_ENGINE_H_
