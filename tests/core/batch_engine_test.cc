// BatchEngine correctness: batched parallel execution (per-worker
// scratch reuse) must be bit-identical to serial RePaGer::Generate, per
// query, over a small but fully wired workbench.

#include "core/batch_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "eval/workbench.h"

namespace rpg::core {
namespace {

class BatchEngineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::WorkbenchOptions options;
    options.corpus.hierarchy.areas_per_domain = 2;
    options.corpus.hierarchy.topics_per_area = 2;
    options.corpus.papers_per_topic = 60;
    options.corpus.papers_per_area = 20;
    options.corpus.papers_per_domain = 15;
    options.corpus.num_surveys = 100;
    options.corpus.seed = 33;
    wb_ = eval::Workbench::Create(options).value().release();
  }
  static void TearDownTestSuite() {
    delete wb_;
    wb_ = nullptr;
  }

  /// A non-owning substrate handle: wb_ outlives every batch.
  static std::shared_ptr<const RePaGer> Substrate() {
    return std::shared_ptr<const RePaGer>(std::shared_ptr<const void>(),
                                          &wb_->repager());
  }

  /// A batch over the first `n` bank entries, each with the standard
  /// leave-the-survey-out options.
  static std::vector<BatchQuery> MakeBatch(size_t n) {
    std::vector<BatchQuery> batch;
    for (size_t i = 0; i < n && i < wb_->bank().size(); ++i) {
      const auto& entry = wb_->bank().Get(i);
      BatchQuery q;
      q.query = entry.query;
      q.options.year_cutoff = entry.year;
      q.options.exclude = {entry.paper};
      q.repager = Substrate();
      batch.push_back(std::move(q));
    }
    return batch;
  }

  static void ExpectSameResult(const RePagerResult& a, const RePagerResult& b) {
    EXPECT_EQ(a.ranked, b.ranked);
    EXPECT_EQ(a.initial_seeds, b.initial_seeds);
    EXPECT_EQ(a.terminals, b.terminals);
    EXPECT_EQ(a.path.nodes(), b.path.nodes());
    EXPECT_EQ(a.path.edges(), b.path.edges());
    EXPECT_EQ(a.subgraph_nodes, b.subgraph_nodes);
    EXPECT_EQ(a.subgraph_edges, b.subgraph_edges);
  }

  static const eval::Workbench* wb_;
};

const eval::Workbench* BatchEngineFixture::wb_ = nullptr;

TEST_F(BatchEngineFixture, BatchedMatchesSerialGenerate) {
  auto batch = MakeBatch(8);
  ASSERT_FALSE(batch.empty());

  BatchEngineOptions options;
  options.num_threads = 4;
  BatchEngine engine(options);
  EXPECT_EQ(engine.num_threads(), 4u);
  BatchResult result = engine.Run(batch);

  ASSERT_EQ(result.results.size(), batch.size());
  EXPECT_EQ(result.num_ok, batch.size());
  EXPECT_GT(result.wall_seconds, 0.0);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(result.results[i].ok()) << "query " << i;
    auto serial =
        wb_->repager().Generate(batch[i].query, batch[i].options).value();
    ExpectSameResult(result.results[i].value(), serial);
  }
}

TEST_F(BatchEngineFixture, ScratchReuseAcrossConsecutiveQueriesIsIdentical) {
  auto batch = MakeBatch(6);
  // One scratch threaded through consecutive queries of very different
  // sub-graph sizes must not leak state between them.
  QueryScratch scratch;
  for (const BatchQuery& q : batch) {
    auto reused = wb_->repager().Generate(q.query, q.options, &scratch);
    auto fresh = wb_->repager().Generate(q.query, q.options);
    ASSERT_TRUE(reused.ok());
    ASSERT_TRUE(fresh.ok());
    ExpectSameResult(reused.value(), fresh.value());
  }
  // And again with varying options on the same scratch.
  for (const BatchQuery& q : batch) {
    RePagerOptions options = q.options;
    options.num_initial_seeds = 10;
    options.run_steiner = false;
    auto reused = wb_->repager().Generate(q.query, options, &scratch);
    auto fresh = wb_->repager().Generate(q.query, options);
    ASSERT_TRUE(reused.ok());
    ASSERT_TRUE(fresh.ok());
    ExpectSameResult(reused.value(), fresh.value());
  }
}

TEST_F(BatchEngineFixture, PerQueryFailuresStayInTheirSlot) {
  auto batch = MakeBatch(2);
  ASSERT_EQ(batch.size(), 2u);
  BatchQuery empty;  // InvalidArgument
  empty.repager = Substrate();
  BatchQuery garbage;
  garbage.query = "zzzz qqqq xxxx vvvv";  // NotFound
  garbage.repager = Substrate();
  batch.insert(batch.begin() + 1, empty);
  batch.push_back(garbage);

  BatchEngineOptions options;
  options.num_threads = 3;
  BatchEngine engine(options);
  BatchResult result = engine.Run(batch);

  ASSERT_EQ(result.results.size(), 4u);
  EXPECT_EQ(result.num_ok, 2u);
  EXPECT_TRUE(result.results[0].ok());
  EXPECT_TRUE(result.results[1].status().IsInvalidArgument());
  EXPECT_TRUE(result.results[2].ok());
  EXPECT_TRUE(result.results[3].status().IsNotFound());
}

TEST_F(BatchEngineFixture, AggregateStatsSumOverSuccessfulQueries) {
  auto batch = MakeBatch(5);
  BatchEngine engine({.num_threads = 2});
  BatchResult result = engine.Run(batch);
  uint64_t settled = 0;
  double query_seconds = 0.0;
  for (const auto& r : result.results) {
    ASSERT_TRUE(r.ok());
    settled += r->steiner_stats.nodes_settled;
    query_seconds += r->total_seconds;
  }
  EXPECT_EQ(result.steiner_stats.nodes_settled, settled);
  EXPECT_GT(result.steiner_stats.nodes_settled, 0u);
  EXPECT_NEAR(result.sum_query_seconds, query_seconds, 1e-12);
}

TEST_F(BatchEngineFixture, SingleThreadAndRepeatedRunsWork) {
  auto batch = MakeBatch(3);
  BatchEngine engine({.num_threads = 1});
  BatchResult first = engine.Run(batch);
  BatchResult second = engine.Run(batch);  // pool persists across batches
  ASSERT_EQ(first.num_ok, batch.size());
  ASSERT_EQ(second.num_ok, batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ExpectSameResult(first.results[i].value(), second.results[i].value());
  }
}

}  // namespace
}  // namespace rpg::core
