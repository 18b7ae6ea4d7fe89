#ifndef RPG_CORE_SOLVE_QUERY_H_
#define RPG_CORE_SOLVE_QUERY_H_

/// \file
/// One query's worth of work for a solver thread: the query with its
/// pipeline options and substrate (BatchQuery), and the per-query body
/// (SolveQuery) that serve::SolveQueue workers run, online and offline
/// alike, so every parallel solve records the same spans and produces
/// the same bytes as a serial RePaGer::Generate.
///
/// Ownership / thread-safety model:
///  - Every query names its RePaGer (and, through it, the CitationGraph,
///    SearchEngine and WeightModel): BatchQuery::repager is an owning
///    shared_ptr (an epoch handle alias in serving) that keeps its
///    substrate alive by itself. Substrates are immutable and read
///    concurrently by all solver threads.
///  - The QueryScratch passed to SolveQuery belongs to that one solve;
///    scratches are never shared between threads.

#include <memory>
#include <string>

#include "core/repager.h"

namespace rpg::core {

/// One query for a solver thread: the free-text query plus its pipeline
/// options and substrate.
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
  /// to a newer epoch while the query waited.
  std::shared_ptr<const RePaGer> repager;
};

/// Solves one query on `scratch`: runs Generate on the query's own
/// substrate and, when the query carries a request trace, records a
/// `solve` span and splices the pipeline's stage spans into it (rebased
/// onto the solve span). An exception from the pipeline comes back as
/// Status::Internal, so a solver thread never unwinds. The query must
/// carry its `repager`; `scratch` must not be shared with a concurrent
/// solve.
Result<RePagerResult> SolveQuery(const BatchQuery& query,
                                 QueryScratch* scratch);

}  // namespace rpg::core

#endif  // RPG_CORE_SOLVE_QUERY_H_
