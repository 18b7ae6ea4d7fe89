// The differential identity layer: a snapshot-loaded serving substrate
// must answer the full query set BIT-IDENTICALLY to the in-memory
// rebuild it was written from — serially, batched, and through the HTTP
// JSON rendering (timing fields stripped). Relabeled snapshots permute
// ids, so their identity is asserted at the substrate level through the
// id map (every per-paper array, the graph, and full BM25 result sets
// map back exactly); floating-point tie-breaks make naive end-to-end
// id-equality meaningless there by design.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <regex>
#include <string>
#include <vector>

#include "../serve/serve_test_util.h"
#include "serve/serve_engine.h"
#include "serve/solve_queue.h"
#include "snapshot/serving_state.h"
#include "ui/repager_service.h"

#include "snapshot_test_util.h"

namespace rpg::snapshot {
namespace {

using core::RePagerOptions;
using core::RePagerResult;

/// The full differential query set: every survey query in the bank.
std::vector<std::string> AllQueries() {
  const auto& bank = TestWorkbench().bank();
  std::vector<std::string> queries;
  queries.reserve(bank.size());
  for (size_t i = 0; i < bank.size(); ++i) {
    queries.push_back(bank.Get(i).query);
  }
  return queries;
}

const ServingState& LoadedState() {
  static const ServingState* state =
      ServingState::Load(TestSnapshotPath(/*relabel=*/false))
          .value()
          .release();
  return *state;
}

/// Everything except wall-clock timings and solver work counters must
/// match exactly.
void ExpectSameResult(const RePagerResult& a, const RePagerResult& b,
                      const std::string& query) {
  EXPECT_EQ(a.path.nodes(), b.path.nodes()) << query;
  EXPECT_EQ(a.path.edges(), b.path.edges()) << query;
  EXPECT_EQ(a.ranked, b.ranked) << query;
  EXPECT_EQ(a.initial_seeds, b.initial_seeds) << query;
  EXPECT_EQ(a.terminals, b.terminals) << query;
  EXPECT_EQ(a.subgraph_nodes, b.subgraph_nodes) << query;
  EXPECT_EQ(a.subgraph_edges, b.subgraph_edges) << query;
}

TEST(SnapshotDifferentialTest, SerialQueriesBitIdentical) {
  const eval::Workbench& wb = TestWorkbench();
  const ServingState& state = LoadedState();
  ASSERT_EQ(state.graph().num_nodes(), wb.corpus().citations.num_nodes());
  for (const std::string& query : AllQueries()) {
    auto rebuilt = wb.repager().Generate(query);
    auto loaded = state.repager().Generate(query);
    ASSERT_EQ(rebuilt.ok(), loaded.ok()) << query;
    if (!rebuilt.ok()) continue;
    ExpectSameResult(rebuilt.value(), loaded.value(), query);
  }
}

TEST(SnapshotDifferentialTest, BatchedQueriesBitIdentical) {
  const eval::Workbench& wb = TestWorkbench();
  const ServingState& state = LoadedState();
  // LoadedState() is never freed, so a non-owning handle suffices.
  std::shared_ptr<const core::RePaGer> repager(std::shared_ptr<const void>(),
                                               &state.repager());
  const std::vector<std::string> queries = AllQueries();
  serve::SolveQueue queue(4, {.max_queue_depth = 0});
  std::vector<std::future<Result<RePagerResult>>> batched;
  for (const std::string& query : queries) {
    batched.push_back(serve::AsFuture<Result<RePagerResult>>([&](auto done) {
      queue.SubmitAsync({.query = query, .repager = repager}, done);
    }));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    auto rebuilt = wb.repager().Generate(queries[i]);
    Result<RePagerResult> loaded = batched[i].get();
    ASSERT_EQ(rebuilt.ok(), loaded.ok()) << queries[i];
    if (!rebuilt.ok()) continue;
    ExpectSameResult(rebuilt.value(), loaded.value(), queries[i]);
  }
}

/// /api/path JSON from the snapshot-backed service equals the
/// workbench-backed one once the volatile timing fields are zeroed.
TEST(SnapshotDifferentialTest, ServeJsonIdentical) {
  const eval::Workbench& wb = TestWorkbench();
  auto loaded_epoch =
      serve::LoadEpochFromSnapshot(TestSnapshotPath(/*relabel=*/false), 1);
  ASSERT_TRUE(loaded_epoch.ok()) << loaded_epoch.status().ToString();

  serve::ServeEngineOptions serve_options;
  serve_options.num_threads = 2;
  serve_options.enable_cache = false;
  serve::ServeEngine rebuilt_engine(serve::WorkbenchEpoch(wb), serve_options);
  serve::ServeEngine loaded_engine(loaded_epoch.value(), serve_options);
  ui::RePagerService rebuilt_service(&rebuilt_engine);
  ui::RePagerService loaded_service(&loaded_engine);

  const std::regex timing("\"(serve_)?seconds\":[-+0-9.eE]+");
  const auto& bank = wb.bank();
  for (size_t i = 0; i < bank.size(); i += 4) {
    const auto& entry = bank.Get(i);
    ui::HttpRequest request{"GET",
                            "/api/path",
                            {{"q", entry.query},
                             {"seeds", "30"},
                             {"year", std::to_string(entry.year)}}};
    auto a = serve::AsFuture<ui::HttpResponse>([&](auto done) {
      rebuilt_service.HandleAsync(request, done);
    }).get();
    auto b = serve::AsFuture<ui::HttpResponse>([&](auto done) {
      loaded_service.HandleAsync(request, done);
    }).get();
    ASSERT_EQ(a.status, b.status) << entry.query;
    EXPECT_EQ(std::regex_replace(a.body, timing, "\"t\":0"),
              std::regex_replace(b.body, timing, "\"t\":0"))
        << entry.query;
  }
}

TEST(SnapshotDifferentialTest, LoadedSubstrateFieldsMatch) {
  const eval::Workbench& wb = TestWorkbench();
  const ServingState& state = LoadedState();
  EXPECT_EQ(state.titles(), wb.titles());
  EXPECT_EQ(state.years(), wb.years());
  EXPECT_EQ(state.pagerank(), wb.pagerank());
  EXPECT_EQ(state.venue_scores(), wb.venue_scores());
  EXPECT_EQ(state.corpus_seed(), 55u);
  EXPECT_FALSE(state.relabeled());
  EXPECT_TRUE(state.new_to_old().empty());

  // Embeddings: the mmap-backed matrix equals the built one bit for bit.
  auto a = state.matcher().embeddings();
  auto b = wb.matcher().embeddings();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));

  // Graph: full adjacency identity.
  const auto& ga = state.graph();
  const auto& gb = wb.corpus().citations;
  ASSERT_EQ(ga.num_nodes(), gb.num_nodes());
  ASSERT_EQ(ga.num_edges(), gb.num_edges());
  for (graph::PaperId u = 0; u < ga.num_nodes(); ++u) {
    auto oa = ga.OutNeighbors(u), ob = gb.OutNeighbors(u);
    ASSERT_TRUE(std::equal(oa.begin(), oa.end(), ob.begin(), ob.end())) << u;
    auto ia = ga.InNeighbors(u), ib = gb.InNeighbors(u);
    ASSERT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin(), ib.end())) << u;
  }
}

/// Writing a snapshot back out of the loaded state reproduces the
/// original file byte for byte — serialization is a fixed point.
TEST(SnapshotDifferentialTest, RewriteFromLoadedStateIsByteIdentical) {
  const ServingState& state = LoadedState();
  SnapshotInput input;
  input.graph = &state.graph();
  input.titles = &state.titles();
  input.years = &state.years();
  input.pagerank = &state.pagerank();
  input.venue_scores = &state.venue_scores();
  input.engine = &state.engine();
  input.matcher = &state.matcher();
  input.params = state.params();
  input.corpus_seed = state.corpus_seed();

  const auto path =
      (std::filesystem::temp_directory_path() / "rpg_rewrite.snap").string();
  ASSERT_TRUE(WriteSnapshot(input, path).ok());
  std::ifstream is(path, std::ios::binary);
  std::vector<uint8_t> rewritten((std::istreambuf_iterator<char>(is)),
                                 std::istreambuf_iterator<char>());
  EXPECT_EQ(rewritten, TestSnapshotImage(/*relabel=*/false));
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------
// Relabeled snapshots: ids are permuted, so identity is asserted through
// the new->old map at the substrate level.

const ServingState& RelabeledState() {
  static const ServingState* state =
      ServingState::Load(TestSnapshotPath(/*relabel=*/true))
          .value()
          .release();
  return *state;
}

TEST(SnapshotRelabelTest, OrderIsAPermutationAndDeterministic) {
  const auto& g = TestWorkbench().corpus().citations;
  auto order = BfsRelabelOrder(g);
  ASSERT_EQ(order.size(), g.num_nodes());
  std::vector<uint8_t> seen(g.num_nodes(), 0);
  for (graph::PaperId p : order) {
    ASSERT_LT(p, g.num_nodes());
    EXPECT_FALSE(seen[p]);
    seen[p] = 1;
  }
  // First root is a highest-in-degree node.
  size_t max_indeg = 0;
  for (graph::PaperId p = 0; p < g.num_nodes(); ++p) {
    max_indeg = std::max(max_indeg, g.InDegree(p));
  }
  EXPECT_EQ(g.InDegree(order.front()), max_indeg);
  EXPECT_EQ(order, BfsRelabelOrder(g));
}

TEST(SnapshotRelabelTest, SubstrateMapsBackExactly) {
  const eval::Workbench& wb = TestWorkbench();
  const ServingState& state = RelabeledState();
  ASSERT_TRUE(state.relabeled());
  const auto& map = state.new_to_old();
  ASSERT_EQ(map.size(), wb.titles().size());

  const size_t dim =
      static_cast<size_t>(state.matcher().embedder().dim());
  for (size_t new_id = 0; new_id < map.size(); ++new_id) {
    const graph::PaperId old_id = map[new_id];
    EXPECT_EQ(state.titles()[new_id], wb.titles()[old_id]);
    EXPECT_EQ(state.years()[new_id], wb.years()[old_id]);
    EXPECT_EQ(state.pagerank()[new_id], wb.pagerank()[old_id]);
    EXPECT_EQ(state.venue_scores()[new_id], wb.venue_scores()[old_id]);
    auto row = state.matcher().doc_embedding(static_cast<uint32_t>(new_id));
    auto orig = wb.matcher().embeddings().subspan(old_id * dim, dim);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), orig.begin())) << new_id;
  }
}

TEST(SnapshotRelabelTest, GraphEdgesMapBackExactly) {
  const auto& gb = TestWorkbench().corpus().citations;
  const ServingState& state = RelabeledState();
  const auto& ga = state.graph();
  const auto& map = state.new_to_old();
  ASSERT_EQ(ga.num_nodes(), gb.num_nodes());
  ASSERT_EQ(ga.num_edges(), gb.num_edges());
  for (graph::PaperId u = 0; u < ga.num_nodes(); ++u) {
    std::vector<graph::PaperId> mapped;
    for (graph::PaperId v : ga.OutNeighbors(u)) mapped.push_back(map[v]);
    std::sort(mapped.begin(), mapped.end());
    auto orig_span = gb.OutNeighbors(map[u]);
    std::vector<graph::PaperId> orig(orig_span.begin(), orig_span.end());
    std::sort(orig.begin(), orig.end());
    ASSERT_EQ(mapped, orig) << u;
  }
}

/// BM25 is permutation-invariant per document, so the FULL result set
/// (top_k = n: no tie-dependent truncation) maps back with exactly equal
/// scores.
TEST(SnapshotRelabelTest, FullBm25ResultSetMapsBackExactly) {
  const eval::Workbench& wb = TestWorkbench();
  const ServingState& state = RelabeledState();
  const auto& map = state.new_to_old();
  const size_t n = map.size();
  for (const std::string& query : AllQueries()) {
    auto rebuilt = wb.google().Search(query, n, INT32_MAX);
    auto loaded = state.engine().Search(query, n, INT32_MAX);
    ASSERT_EQ(rebuilt.size(), loaded.size()) << query;
    // Compare as (old doc id -> score) maps: ordering differs under
    // permutation only where scores tie, which is exactly what we must
    // not depend on.
    auto key = [](const search::SearchResult& r) { return r.doc; };
    std::vector<search::SearchResult> a = rebuilt;
    std::vector<search::SearchResult> b = loaded;
    for (auto& r : b) r.doc = map[r.doc];
    std::sort(a.begin(), a.end(), [&](const auto& x, const auto& y) {
      return key(x) < key(y);
    });
    std::sort(b.begin(), b.end(), [&](const auto& x, const auto& y) {
      return key(x) < key(y);
    });
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].doc, b[i].doc) << query;
      ASSERT_EQ(a[i].score, b[i].score) << query << " doc " << a[i].doc;
    }
  }
}

TEST(SnapshotRelabelTest, QueriesSucceedOnRelabeledState) {
  const ServingState& state = RelabeledState();
  const auto& map = state.new_to_old();
  for (const std::string& query : AllQueries()) {
    auto result = state.repager().Generate(query);
    if (!result.ok()) continue;
    // Every returned id must be a valid new id; map-back must stay in
    // range (the permutation check at load already guarantees this, but
    // exercise the path the UI would take).
    for (graph::PaperId p : result.value().ranked) {
      ASSERT_LT(p, map.size());
      ASSERT_LT(map[p], map.size());
    }
  }
}

}  // namespace
}  // namespace rpg::snapshot
