// Epoch-based serving state (serve/epoch.h): RCU snapshot swap, epoch-
// stamped cache invalidation, fail-closed reload, and the bit-identity
// pins the refactor promises:
//  - an epoch flip under live concurrent load completes with zero
//    request errors, and every in-flight request is answered
//    bit-identically from the epoch it started on (TSan-covered in CI);
//  - post-flip results equal a fresh process booted from the new
//    snapshot (golden fingerprint);
//  - a corrupt reload candidate is rejected with the serving epoch
//    untouched;
//  - flip invalidation needs no global cache clear — stale stamps are
//    lazily evicted on lookup, and the counters prove it.

#include "serve/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "../serve/serve_test_util.h"
#include "../snapshot/snapshot_test_util.h"
#include "common/logging.h"
#include "serve/serve_engine.h"
#include "ui/http_server.h"
#include "ui/repager_service.h"

namespace rpg::serve {
namespace {

/// This suite's own on-disk snapshots. Not snapshot_test_util's
/// TestSnapshotPath: that static writes on first use in EVERY process,
/// so sharing its files with rpg_snapshot_test races under `ctest -j`
/// (one binary mmap-reads while the other rewrites).
const std::string& EpochSnapshotPath(bool relabel) {
  static const std::string* paths[2] = {nullptr, nullptr};
  const int slot = relabel ? 1 : 0;
  if (paths[slot] == nullptr) {
    auto path = (std::filesystem::temp_directory_path() /
                 (relabel ? "rpg_epoch_test_relabel.snap"
                          : "rpg_epoch_test.snap"))
                    .string();
    snapshot::SnapshotWriterOptions options;
    options.relabel = relabel;
    Status status =
        snapshot::WriteSnapshot(snapshot::TestInput(), path, options);
    RPG_CHECK(status.ok());
    paths[slot] = new std::string(path);
  }
  return *paths[slot];
}

/// The snapshot file's bytes (for the corruption tests).
std::vector<uint8_t> EpochSnapshotImage(bool relabel) {
  std::ifstream is(EpochSnapshotPath(relabel), std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(is),
                              std::istreambuf_iterator<char>());
}

/// Epoch A: the test snapshot as written (original paper ids).
/// Epoch B: the SAME corpus, BFS-relabeled — every query resolves in
/// both, but the paper ids (and therefore the result bytes) differ, so
/// a fingerprint tells the epochs apart.
EpochHandle LoadTestEpoch(bool relabel, uint64_t id) {
  auto epoch_or = LoadEpochFromSnapshot(EpochSnapshotPath(relabel), id);
  EXPECT_TRUE(epoch_or.ok()) << epoch_or.status().ToString();
  return epoch_or.value();
}

/// Order-sensitive FNV-1a over every id-carrying field of the result:
/// two results fingerprint equal iff they are bit-identical where it
/// matters (ranked order, path structure, seeds, terminals).
uint64_t Fingerprint(const core::RePagerResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (graph::PaperId p : r.ranked) mix(p);
  mix(0xABull);
  for (graph::PaperId p : r.path.nodes()) mix(p);
  mix(0xCDull);
  for (const auto& [a, b] : r.path.edges()) {
    mix(a);
    mix(b);
  }
  mix(0xEFull);
  for (graph::PaperId p : r.initial_seeds) mix(p);
  for (graph::PaperId p : r.terminals) mix(p);
  mix(r.subgraph_nodes);
  mix(r.subgraph_edges);
  return h;
}

/// The per-epoch reference: what a fresh, serial, uncached Generate on
/// this epoch's substrate produces for `query`.
uint64_t ReferenceFingerprint(const Epoch& epoch, const std::string& query,
                              int year_cutoff) {
  core::RePagerOptions options;
  if (year_cutoff > 0) options.year_cutoff = year_cutoff;
  auto r = epoch.repager().Generate(query, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return Fingerprint(*r);
}

/// A handful of SurveyBank queries every suite below shares (the
/// snapshot corpus is the same workbench corpus, so they hit in every
/// epoch).
std::vector<std::string> TestQueries(size_t n) {
  const eval::Workbench& wb = snapshot::TestWorkbench();
  std::vector<std::string> queries;
  for (size_t i = 0; i < n && i < wb.bank().size(); ++i) {
    queries.push_back(wb.bank().Get(i).query);
  }
  return queries;
}

TEST(EpochTest, InProcessEpochServesIdenticalToDirectGenerate) {
  // An in-process substrate (Epoch::Create over a workbench) serves the
  // same results as calling its RePaGer directly.
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(WorkbenchEpoch(snapshot::TestWorkbench()), options);
  EXPECT_EQ(engine.CurrentEpoch()->id(), 1u);
  EXPECT_EQ(engine.CurrentEpoch()->info().source, "in-process");

  const std::string query = TestQueries(1).front();
  auto served = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(query, 0, 0, done);
  }).get();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  auto direct = snapshot::TestWorkbench().repager().Generate(query);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(Fingerprint(*served->result), Fingerprint(*direct));
  // The response pins the epoch it was served on.
  ASSERT_NE(served->epoch, nullptr);
  EXPECT_EQ(served->epoch, engine.CurrentEpoch());
}

TEST(EpochTest, SnapshotEpochCarriesMetadata) {
  EpochHandle epoch = LoadTestEpoch(/*relabel=*/false, /*id=*/1);
  ASSERT_NE(epoch, nullptr);
  EXPECT_EQ(epoch->id(), 1u);
  EXPECT_EQ(epoch->titles().size(), epoch->info().num_papers);
  EXPECT_EQ(epoch->years().size(), epoch->info().num_papers);
  EXPECT_GT(epoch->info().num_edges, 0u);
  EXPECT_EQ(epoch->info().source, EpochSnapshotPath(false));
  EXPECT_GT(epoch->info().loaded_unix_ms, 0);
}

TEST(EpochTest, FlipInvalidatesLazilyWithoutGlobalClear) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(LoadTestEpoch(false, 1), options);
  const std::string query = TestQueries(1).front();

  // Epoch 1: miss -> compute -> insert; then a stamped hit.
  ASSERT_TRUE(AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(query, 0, 0, done);
  }).get().ok());
  auto hit = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(query, 0, 0, done);
  }).get();
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit);
  QueryCacheStats before = engine.cache().Stats();
  EXPECT_EQ(before.hits, 1u);
  EXPECT_EQ(before.stale_evictions, 0u);
  ASSERT_GE(before.entries, 1u);

  // Flip. The entry population is untouched (no global clear) — only
  // its stamps went stale.
  engine.SwapEpoch(LoadTestEpoch(true, 2));
  EXPECT_EQ(engine.epoch_flips(), 1u);
  EXPECT_EQ(engine.CurrentEpoch()->id(), 2u);
  EXPECT_EQ(engine.cache().Stats().entries, before.entries);

  // Same query on epoch 2: the stale stamp is evicted on lookup, the
  // query recomputes on the new substrate, and the replacement entry
  // serves the follow-up hit.
  auto recomputed = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(query, 0, 0, done);
  }).get();
  ASSERT_TRUE(recomputed.ok());
  EXPECT_FALSE(recomputed->cache_hit);
  EXPECT_EQ(recomputed->epoch->id(), 2u);
  auto rehit = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(query, 0, 0, done);
  }).get();
  ASSERT_TRUE(rehit.ok());
  EXPECT_TRUE(rehit->cache_hit);

  QueryCacheStats after = engine.cache().Stats();
  EXPECT_EQ(after.stale_evictions, 1u);
  // The per-epoch split: epoch 1's entry went stale; epoch 2 took one
  // miss (the recompute) and one hit (the re-lookup).
  bool saw_epoch1 = false, saw_epoch2 = false;
  for (const EpochCacheStats& e : after.by_epoch) {
    if (e.epoch == 1) {
      saw_epoch1 = true;
      EXPECT_EQ(e.stale_evictions, 1u);
    }
    if (e.epoch == 2) {
      saw_epoch2 = true;
      EXPECT_GE(e.misses, 1u);
      EXPECT_GE(e.hits, 1u);
    }
  }
  EXPECT_TRUE(saw_epoch1);
  EXPECT_TRUE(saw_epoch2);
}

TEST(EpochTest, CorruptReloadRejectedServingUninterrupted) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(LoadTestEpoch(false, 1), options);
  const std::string query = TestQueries(1).front();
  ASSERT_TRUE(AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(query, 0, 0, done);
  }).get().ok());

  // A corrupt reload candidate: one flipped byte deep in the section
  // payloads (past the header so the damage lands in checksummed data).
  std::vector<uint8_t> bytes = EpochSnapshotImage(false);
  ASSERT_GT(bytes.size(), 1024u);
  bytes[bytes.size() * 3 / 4] ^= 0x40;
  auto corrupt_path = (std::filesystem::temp_directory_path() /
                       "rpg_epoch_test_corrupt.snap")
                          .string();
  {
    std::ofstream os(corrupt_path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  }

  // Fail-closed: the load (open-time validation or the full
  // VerifyAllChecksums audit) rejects the candidate with a typed error
  // and nothing is constructed or swapped.
  auto epoch_or = LoadEpochFromSnapshot(corrupt_path, 2);
  ASSERT_FALSE(epoch_or.ok());
  EXPECT_TRUE(epoch_or.status().IsInvalidArgument())
      << epoch_or.status().ToString();
  EXPECT_FALSE(epoch_or.status().message().empty());

  // The serving epoch is untouched and requests keep succeeding.
  EXPECT_EQ(engine.CurrentEpoch()->id(), 1u);
  EXPECT_EQ(engine.epoch_flips(), 0u);
  auto after = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(query, 0, 0, done);
  }).get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->epoch->id(), 1u);

  std::filesystem::remove(corrupt_path);
}

TEST(EpochTest, ReloadEndpointFlipsAndRejectsCorrupt) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(LoadTestEpoch(false, 1), options);
  ui::RePagerService service(&engine);

  // Happy path: POST the relabeled snapshot's path; the service loads,
  // audits, and flips.
  ui::HttpRequest reload;
  reload.method = "POST";
  reload.path = "/api/admin/reload";
  reload.body = EpochSnapshotPath(true);
  auto response = AsFuture<ui::HttpResponse>([&](auto done) {
    service.HandleAsync(reload, done);
  }).get();
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"reloaded\":true"), std::string::npos);
  EXPECT_EQ(engine.CurrentEpoch()->id(), 2u);
  EXPECT_EQ(engine.epoch_flips(), 1u);

  // /api/stats reflects the flip.
  ui::HttpRequest stats;
  stats.method = "GET";
  stats.path = "/api/stats";
  auto stats_response = AsFuture<ui::HttpResponse>([&](auto done) {
    service.HandleAsync(stats, done);
  }).get();
  EXPECT_EQ(stats_response.status, 200);
  EXPECT_NE(stats_response.body.find("\"epoch\":{\"id\":2,\"flips\":1"),
            std::string::npos)
      << stats_response.body;

  // GET /metrics carries the epoch instruments.
  ui::HttpRequest metrics;
  metrics.method = "GET";
  metrics.path = "/metrics";
  auto metrics_response = AsFuture<ui::HttpResponse>([&](auto done) {
    service.HandleAsync(metrics, done);
  }).get();
  EXPECT_EQ(metrics_response.status, 200);
  EXPECT_NE(metrics_response.body.find("rpg_epoch_id 2"), std::string::npos);
  EXPECT_NE(metrics_response.body.find("rpg_epoch_flips_total 1"),
            std::string::npos);
  EXPECT_NE(metrics_response.body.find("rpg_epoch_last_reload_unix_seconds"),
            std::string::npos);

  // Corrupt candidate over HTTP: 400 (typed InvalidArgument naming the
  // offending layer), serving epoch untouched.
  std::vector<uint8_t> bytes = EpochSnapshotImage(false);
  bytes[bytes.size() / 2] ^= 0x01;
  auto corrupt_path = (std::filesystem::temp_directory_path() /
                       "rpg_epoch_reload_corrupt.snap")
                          .string();
  {
    std::ofstream os(corrupt_path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  }
  reload.body = corrupt_path;
  response = AsFuture<ui::HttpResponse>([&](auto done) {
    service.HandleAsync(reload, done);
  }).get();
  EXPECT_EQ(response.status, 400) << response.body;
  EXPECT_NE(response.body.find("\"reloaded\":false"), std::string::npos);
  EXPECT_EQ(engine.CurrentEpoch()->id(), 2u);

  // Missing file: 404, also fail-closed.
  reload.body = "/nonexistent/rpg_epoch_test.snap";
  response = AsFuture<ui::HttpResponse>([&](auto done) {
    service.HandleAsync(reload, done);
  }).get();
  EXPECT_EQ(response.status, 404) << response.body;
  EXPECT_EQ(engine.CurrentEpoch()->id(), 2u);

  std::filesystem::remove(corrupt_path);
}

TEST(EpochTest, PostFlipResultsEqualFreshBootFromNewSnapshot) {
  // The golden-fingerprint pin: after flipping to epoch B, every result
  // must be byte-identical to what a fresh process booted from B's
  // snapshot computes.
  std::vector<std::string> queries = TestQueries(4);
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(LoadTestEpoch(false, 1), options);
  for (const std::string& q : queries) {
    ASSERT_TRUE(AsFuture<Result<ServeResponse>>([&](auto done) {
      engine.GenerateAsync(q, 0, 0, done);
    }).get().ok());
  }
  engine.SwapEpoch(LoadTestEpoch(true, 2));

  // "Fresh boot": a separate load of the same snapshot file — its own
  // mmap, its own substrate, no shared state with the serving engine.
  EpochHandle fresh = LoadTestEpoch(true, 2);
  for (const std::string& q : queries) {
    auto served = AsFuture<Result<ServeResponse>>([&](auto done) {
      engine.GenerateAsync(q, 0, 0, done);
    }).get();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_FALSE(served->cache_hit);  // old stamps must not leak through
    EXPECT_EQ(served->epoch->id(), 2u);
    EXPECT_EQ(Fingerprint(*served->result),
              ReferenceFingerprint(*fresh, q, 0))
        << "post-flip result diverges from fresh boot for query: " << q;
  }
}

TEST(EpochTest, ConcurrentFlipWhileServingZeroErrorsBitIdentical) {
  // The live-churn pin (runs under TSan in the tsan-serve CI job):
  // worker threads hammer the engine while the main thread flips the
  // epoch back and forth. Every response must (a) succeed, (b) carry an
  // epoch handle consistent with its result bytes — i.e. in-flight
  // requests finish bit-identically on the epoch they started on.
  EpochHandle a = LoadTestEpoch(false, 1);
  EpochHandle b = LoadTestEpoch(true, 2);
  std::vector<std::string> queries = TestQueries(3);
  std::vector<uint64_t> fp_a, fp_b;
  for (const std::string& q : queries) {
    fp_a.push_back(ReferenceFingerprint(*a, q, 0));
    fp_b.push_back(ReferenceFingerprint(*b, q, 0));
  }

  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(a, options);

  constexpr int kWorkers = 4;
  constexpr int kIterations = 25;
  std::atomic<int> errors{0};
  std::atomic<int> mismatches{0};
  std::atomic<bool> stop_flipping{false};
  std::vector<std::thread> workers;
  workers.reserve(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kIterations; ++i) {
        const size_t qi = static_cast<size_t>(w + i) % queries.size();
        auto served = AsFuture<Result<ServeResponse>>([&](auto done) {
          engine.GenerateAsync(queries[qi], 0, 0, done);
        }).get();
        if (!served.ok()) {
          ++errors;
          continue;
        }
        const uint64_t id = served->epoch->id();
        const uint64_t fp = Fingerprint(*served->result);
        const uint64_t expected = id == 1 ? fp_a[qi] : fp_b[qi];
        if ((id != 1 && id != 2) || fp != expected) ++mismatches;
      }
    });
  }
  std::thread flipper([&] {
    bool to_b = true;
    while (!stop_flipping.load(std::memory_order_relaxed)) {
      engine.SwapEpoch(to_b ? b : a);
      to_b = !to_b;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (std::thread& t : workers) t.join();
  stop_flipping.store(true, std::memory_order_relaxed);
  flipper.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(engine.epoch_flips(), 1u);

  // The flip machinery must not have cleared the cache wholesale: stale
  // stamps drain one lookup at a time. The concurrent section may or
  // may not have crossed a flip boundary (a fast run finishes inside
  // one window), so force one deterministic stale hit: populate on A,
  // flip to B, re-ask.
  const uint64_t stale_before = engine.cache().Stats().stale_evictions;
  engine.SwapEpoch(a);
  ASSERT_TRUE(AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(queries[0], 0, 0, done);
  }).get().ok());
  engine.SwapEpoch(b);
  auto post = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(queries[0], 0, 0, done);
  }).get();
  ASSERT_TRUE(post.ok());
  EXPECT_FALSE(post->cache_hit);
  EXPECT_GT(engine.cache().Stats().stale_evictions, stale_before);
}

}  // namespace
}  // namespace rpg::serve
