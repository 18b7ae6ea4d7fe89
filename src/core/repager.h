#ifndef RPG_CORE_REPAGER_H_
#define RPG_CORE_REPAGER_H_

/// \file
/// The RePaGer pipeline (§IV-A of the paper): free-text query -> engine
/// seed retrieval -> KHop sub-citation graph -> seed reallocation ->
/// NEWST Steiner tree -> ranked reading path.
///
/// Ownership / thread-safety model:
///  - RePaGer holds const pointers to a CitationGraph, SearchEngine,
///    WeightModel and years array; all four are immutable after
///    construction and must outlive the RePaGer. One RePaGer can serve
///    any number of threads concurrently.
///  - Generate() is const and touches only shared immutable state plus
///    its own locals — EXCEPT the explicit-scratch overload, whose
///    QueryScratch is the per-call mutable state. Give each concurrent
///    caller its own QueryScratch (serve::SolveQueue gives each solve a
///    fresh one); never share a scratch between threads.
///  - The scratch-free Generate() is a thin wrapper that builds a fresh
///    QueryScratch per call. Results are bit-identical either way; the
///    scratch exists purely so batch serving can amortize the per-query
///    allocations (KHop visit map, subgraph id map + CSR arrays,
///    weighted-graph builder buffers) that dominate once the Steiner
///    solver is fast (see ROADMAP "Perf — Steiner hot path").

#include <memory>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/result.h"
#include "core/reading_path.h"
#include "obs/trace.h"
#include "core/seed_reallocator.h"
#include "graph/citation_graph.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "rank/weight_model.h"
#include "search/search_engine.h"
#include "steiner/newst.h"

namespace rpg::core {

/// Pipeline configuration. Defaults are the paper's experimental setting.
struct RePagerOptions {
  /// Top-K articles fetched from the engine as initial seeds (§VI-A: 30).
  int num_initial_seeds = 30;
  /// Expansion depth for the sub-citation graph (§IV-A step 3: 1st and
  /// 2nd order neighbors).
  int expansion_hops = 2;
  /// Expansion follows references (out-edges), the direction Observation
  /// II explores; kUndirected additionally pulls in citing papers.
  graph::Direction expansion_direction = graph::Direction::kOut;
  /// Minimum number of distinct seeds citing a paper for it to become a
  /// reallocated seed.
  int min_cooccurrence = 2;
  /// Terminal-set construction (Table III left ablation).
  SeedMode seed_mode = SeedMode::kReallocated;
  /// When false, skip the Steiner step entirely and return the seed set
  /// as the result (the NEWST-C ablation).
  bool run_steiner = true;
  /// Steiner variant switches (Table III right ablation: -N / -E).
  steiner::NewstOptions newst;
  /// Only consider papers published in or before this year (the paper
  /// restricts search to "anytime .. survey publication year").
  int year_cutoff = INT32_MAX;
  /// Doc ids the engine must not return (e.g. the queried survey).
  std::vector<graph::PaperId> exclude;
};

/// Everything RePaGer produces for one query.
struct RePagerResult {
  ReadingPath path;
  /// Ranked candidate list: Steiner-tree papers first (most important
  /// first), then remaining sub-graph candidates by importance. Truncate
  /// at K for the top-K evaluation.
  std::vector<graph::PaperId> ranked;
  std::vector<graph::PaperId> initial_seeds;
  std::vector<graph::PaperId> terminals;
  size_t subgraph_nodes = 0;
  size_t subgraph_edges = 0;
  double steiner_seconds = 0.0;
  double total_seconds = 0.0;
  /// Work counters from the NEWST run (zeros when run_steiner is false).
  steiner::SteinerStats steiner_stats;
  /// Per-stage spans of this Generate run (obs::kPipelineStages order,
  /// clocked from the call's start). Empty when tracing is compiled out
  /// or runtime-disabled. Cached with the result, so cache hits still
  /// attribute their original compute time.
  obs::SpanSet stages;
};

/// Reusable per-query working memory for RePaGer::Generate: the KHop
/// visit map and frontier levels, the subgraph id map and CSR arrays, the
/// weighted-graph builder buffers, and the ranking hash sets. After the
/// first query everything here is warm, so subsequent Generate calls make
/// almost no allocations outside the returned RePagerResult.
///
/// One scratch per thread: serve::SolveQueue gives each solve its own.
/// The scratch carries no query state between calls — results are
/// bit-identical with a fresh or a reused scratch.
class QueryScratch {
 public:
  QueryScratch() = default;
  QueryScratch(const QueryScratch&) = delete;
  QueryScratch& operator=(const QueryScratch&) = delete;

 private:
  friend class RePaGer;
  /// Preallocated span storage for the pipeline trace: Generate records
  /// stage spans here (allocation-free after warm-up) and copies the
  /// SpanSet onto the result. Reset at the start of every traced call.
  obs::TraceContext trace_;
  graph::TraversalScratch khop_scratch_;
  graph::KHopResult khop_;
  graph::SubgraphScratch sg_scratch_;
  graph::Subgraph sg_;
  steiner::WeightedGraphBuilder builder_{0};
  steiner::WeightedGraph wg_;
  /// Dense-bitmap scratch for the Eq. (2) Con() counts — stamped once
  /// per high-degree subgraph row in BuildWeightedSubgraph, the single
  /// hottest stage of the pipeline (BENCH_table4 `stages.edge_cost_ms`).
  rank::ConScratch con_scratch_;
  std::vector<graph::PaperId> candidates_;
  std::vector<uint32_t> local_terminals_;
  FlatSet<graph::PaperId> excluded_;
  FlatSet<graph::PaperId> seed_set_;
  FlatMap<graph::PaperId, int> cooccurrence_;
  FlatSet<graph::PaperId> emitted_;
  std::vector<graph::PaperId> seed_block_;
  std::vector<graph::PaperId> rest_;
};

/// The RePaGer system (§IV-A): seed retrieval -> weighted citation graph
/// -> sub-graph -> seed reallocation -> NEWST -> reading path.
///
/// The engine's document ids must coincide with the citation graph's
/// paper ids (both are built over the same corpus).
class RePaGer {
 public:
  /// All pointers must outlive the RePaGer. `years` orders reading
  /// direction and enforces year cutoffs.
  RePaGer(const graph::CitationGraph* graph,
          const search::SearchEngine* engine,
          const rank::WeightModel* weights,
          const std::vector<uint16_t>* years);

  /// Runs the full pipeline for a free-text query.
  Result<RePagerResult> Generate(const std::string& query,
                                 const RePagerOptions& options = {}) const;

  /// Scratch-reusing variant: identical results, but per-query working
  /// memory lives in `scratch` and is recycled across calls. `scratch`
  /// must not be shared between concurrent callers.
  Result<RePagerResult> Generate(const std::string& query,
                                 const RePagerOptions& options,
                                 QueryScratch* scratch) const;

  /// Importance used for ranking: a * pgscore + b * venue — the inverse
  /// of the node-weight denominator, exposed for baselines/tests.
  double Importance(graph::PaperId p) const;

 private:
  const graph::CitationGraph* graph_;
  const search::SearchEngine* engine_;
  const rank::WeightModel* weights_;
  const std::vector<uint16_t>* years_;
};

/// Builds the node-and-edge weighted Steiner input over a subgraph
/// (shared by RePaGer and the runtime benchmarks): node weights from
/// Eq. (3), undirected edges with Eq. (2) costs.
steiner::WeightedGraph BuildWeightedSubgraph(const graph::Subgraph& sg,
                                             const rank::WeightModel& weights);

/// Scratch-reusing variant: accumulates into the caller's builder and
/// writes the CSR result into `*out`, reusing both objects' capacity.
/// `con_scratch` (optional) routes every Eq. (2) count through the
/// per-source dense-bitmap fast path; results are identical with or
/// without it (rank::ConScratch contract).
void BuildWeightedSubgraph(const graph::Subgraph& sg,
                           const rank::WeightModel& weights,
                           steiner::WeightedGraphBuilder* builder,
                           steiner::WeightedGraph* out,
                           rank::ConScratch* con_scratch = nullptr);

}  // namespace rpg::core

#endif  // RPG_CORE_REPAGER_H_
