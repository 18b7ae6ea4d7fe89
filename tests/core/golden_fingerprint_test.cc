// Golden-fingerprint pinning of the full per-query pipeline (ISSUE 9
// satellite): the serial-vs-batched identity suites prove both paths
// agree with EACH OTHER, but a hot-path rewrite could change both in
// lockstep and hide behind that equality. This suite hashes the actual
// RePagerResult contents (rank order, reading-path nodes/edges,
// terminals, seeds, subgraph shape, quantized tree cost) and the raw
// Eq. (2) Con() counts over every citation edge into FNV-1a-64
// fingerprints and compares them against constants captured BEFORE the
// galloping/bitmap common-neighbor kernels, the d-ary Dijkstra heap and
// the flat-hash sweep landed. A kernel bug that perturbs any count,
// cost, tree or rank order anywhere in the sample trips this even if
// every differential suite still self-agrees. The same corpus also
// carries the scratch-reuse identity check.
//
// If a deliberate semantic change (new ranking rule, different weight
// formula, corpus generator change) moves these values, re-capture by
// running with RPG_PRINT_FINGERPRINTS=1 and update the constants —
// alongside prose in the PR explaining why the outputs legitimately
// changed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <vector>

#include "../serve/serve_test_util.h"
#include "core/repager.h"
#include "eval/workbench.h"
#include "serve/solve_queue.h"

namespace rpg::core {
namespace {

/// FNV-1a over a stream of 64-bit words (same idiom as the snapshot
/// checksums: offset basis 1469598103934665603, prime 1099511628211).
class Fnv64 {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
  void AddCost(double cost) {
    // Quantized, not raw bits: identical arithmetic is the goal, but a
    // 1-in-the-last-ulp difference from a legitimate reassociation
    // should not masquerade as a kernel bug.
    Add(static_cast<uint64_t>(std::llround(cost * 1e6)));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

class GoldenFingerprintFixture : public ::testing::Test {
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

  static void MaybePrint(const char* name, uint64_t value) {
    if (std::getenv("RPG_PRINT_FINGERPRINTS") != nullptr) {
      std::printf("FINGERPRINT %s = 0x%016llxULL\n", name,
                  static_cast<unsigned long long>(value));
    }
  }

  static const eval::Workbench* wb_;
};

const eval::Workbench* GoldenFingerprintFixture::wb_ = nullptr;

/// Captured at PR 8 (commit c04a55c), before the intersect-kernel /
/// d-ary-heap / flat-hash rewrite of the per-query hot path.
constexpr uint64_t kGoldenPipeline = 0x78bce4bad3f6d61aULL;
constexpr uint64_t kGoldenConCounts = 0xfb3dc3157e7d4247ULL;

TEST_F(GoldenFingerprintFixture, PipelineResultsMatchGolden) {
  Fnv64 fp;
  const size_t n = std::min<size_t>(wb_->bank().size(), 12);
  ASSERT_GT(n, 0u);
  QueryScratch scratch;
  for (size_t i = 0; i < n; ++i) {
    const auto& entry = wb_->bank().Get(i);
    RePagerOptions options;
    options.year_cutoff = entry.year;
    options.exclude = {entry.paper};
    auto result = wb_->repager().Generate(entry.query, options, &scratch);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const RePagerResult& r = result.value();
    fp.Add(r.ranked.size());
    for (graph::PaperId p : r.ranked) fp.Add(p);
    for (graph::PaperId p : r.initial_seeds) fp.Add(p);
    for (graph::PaperId p : r.terminals) fp.Add(p);
    fp.Add(r.path.nodes().size());
    for (graph::PaperId p : r.path.nodes()) fp.Add(p);
    for (const auto& [a, b] : r.path.edges()) {
      fp.Add(a);
      fp.Add(b);
    }
    fp.Add(r.subgraph_nodes);
    fp.Add(r.subgraph_edges);
  }
  MaybePrint("kGoldenPipeline", fp.value());
  EXPECT_EQ(fp.value(), kGoldenPipeline)
      << "pipeline output changed — if intentional, re-capture with "
         "RPG_PRINT_FINGERPRINTS=1 (see file header)";
}

TEST_F(GoldenFingerprintFixture, ConCountsOverEveryEdgeMatchGolden) {
  // The Eq. (2) relatedness count for every citation edge, both
  // orientations: this is the exact integer surface the intersection
  // kernels compute, so a galloping/bitmap bug cannot hide behind
  // downstream cost smoothing.
  const auto& g = wb_->corpus().citations;
  const auto& weights = wb_->weights();
  Fnv64 fp;
  rank::ConScratch con_scratch;
  for (graph::PaperId u = 0; u < g.num_nodes(); ++u) {
    for (graph::PaperId v : g.OutNeighbors(u)) {
      int c = weights.Con(u, v);
      fp.Add(static_cast<uint64_t>(c));
      // The scratch/bitmap path must agree count-for-count with the
      // scratch-free kernels, and the capped two-phase count must be
      // order-independent.
      EXPECT_EQ(c, weights.Con(u, v, &con_scratch));
      fp.AddCost(weights.EdgeCost(u, v));
    }
  }
  MaybePrint("kGoldenConCounts", fp.value());
  EXPECT_EQ(fp.value(), kGoldenConCounts)
      << "Con()/EdgeCost() changed — if intentional, re-capture with "
         "RPG_PRINT_FINGERPRINTS=1 (see file header)";
}

TEST_F(GoldenFingerprintFixture,
       ScratchReuseAcrossConsecutiveQueriesIsIdentical) {
  // One scratch threaded through consecutive queries of very different
  // sub-graph sizes must not leak state between them.
  const size_t n = std::min<size_t>(wb_->bank().size(), 6);
  QueryScratch scratch;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n; ++i) {
      const auto& entry = wb_->bank().Get(i);
      RePagerOptions options;
      options.year_cutoff = entry.year;
      options.exclude = {entry.paper};
      if (pass == 1) {
        // And again with varying options on the same scratch.
        options.num_initial_seeds = 10;
        options.run_steiner = false;
      }
      auto reused = wb_->repager().Generate(entry.query, options, &scratch);
      auto fresh = wb_->repager().Generate(entry.query, options);
      ASSERT_TRUE(reused.ok());
      ASSERT_TRUE(fresh.ok());
      EXPECT_EQ(reused->ranked, fresh->ranked);
      EXPECT_EQ(reused->initial_seeds, fresh->initial_seeds);
      EXPECT_EQ(reused->terminals, fresh->terminals);
      EXPECT_EQ(reused->path.nodes(), fresh->path.nodes());
      EXPECT_EQ(reused->path.edges(), fresh->path.edges());
      EXPECT_EQ(reused->subgraph_nodes, fresh->subgraph_nodes);
      EXPECT_EQ(reused->subgraph_edges, fresh->subgraph_edges);
    }
  }
}

TEST_F(GoldenFingerprintFixture, BatchedPipelineMatchesSameGolden) {
  // The same fingerprint computed through serve::SolveQueue (4 workers)
  // must land on the same constant: serial == golden and batched ==
  // golden pins serial == batched through an independent witness rather
  // than mutual comparison.
  Fnv64 fp;
  const size_t n = std::min<size_t>(wb_->bank().size(), 12);
  // wb_ outlives the queue, so a non-owning handle suffices.
  std::shared_ptr<const RePaGer> repager(std::shared_ptr<const void>(),
                                         &wb_->repager());
  serve::SolveQueue queue(4, {.max_queue_depth = 0});
  std::vector<std::future<Result<RePagerResult>>> results;
  for (size_t i = 0; i < n; ++i) {
    const auto& entry = wb_->bank().Get(i);
    BatchQuery q;
    q.query = entry.query;
    q.options.year_cutoff = entry.year;
    q.options.exclude = {entry.paper};
    q.repager = repager;
    results.push_back(serve::AsFuture<Result<RePagerResult>>([&](auto done) {
      queue.SubmitAsync(std::move(q), done);
    }));
  }
  for (auto& future : results) {
    Result<RePagerResult> r_or = future.get();
    ASSERT_TRUE(r_or.ok()) << r_or.status().ToString();
    const RePagerResult& r = r_or.value();
    fp.Add(r.ranked.size());
    for (graph::PaperId p : r.ranked) fp.Add(p);
    for (graph::PaperId p : r.initial_seeds) fp.Add(p);
    for (graph::PaperId p : r.terminals) fp.Add(p);
    fp.Add(r.path.nodes().size());
    for (graph::PaperId p : r.path.nodes()) fp.Add(p);
    for (const auto& [a, b] : r.path.edges()) {
      fp.Add(a);
      fp.Add(b);
    }
    fp.Add(r.subgraph_nodes);
    fp.Add(r.subgraph_edges);
  }
  EXPECT_EQ(fp.value(), kGoldenPipeline);
}

}  // namespace
}  // namespace rpg::core
