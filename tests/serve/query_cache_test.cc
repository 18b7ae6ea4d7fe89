#include "serve/query_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace rpg::serve {
namespace {

CachedResult MakeResult(size_t ranked_size) {
  auto result = std::make_shared<core::RePagerResult>();
  result->ranked.resize(ranked_size, 7);
  result->subgraph_nodes = ranked_size;
  return result;
}

// -------------------------------------------------------- canonical key

TEST(CanonicalQueryKeyTest, NormalizesCaseAndWhitespace) {
  std::string base = CanonicalQueryKey("graph neural networks", 30, 2020);
  EXPECT_EQ(CanonicalQueryKey("Graph  Neural   Networks", 30, 2020), base);
  EXPECT_EQ(CanonicalQueryKey("  graph neural networks  ", 30, 2020), base);
  EXPECT_EQ(CanonicalQueryKey("graph\tneural\nnetworks", 30, 2020), base);
}

TEST(CanonicalQueryKeyTest, DefaultsShareKeyWithExplicitDefaults) {
  core::RePagerOptions defaults;
  EXPECT_EQ(CanonicalQueryKey("q", 0, 0),
            CanonicalQueryKey("q", defaults.num_initial_seeds,
                              defaults.year_cutoff));
  EXPECT_EQ(CanonicalQueryKey("q", -1, -5), CanonicalQueryKey("q", 0, 0));
}

TEST(CanonicalQueryKeyTest, DistinctParametersDistinctKeys) {
  EXPECT_NE(CanonicalQueryKey("q", 10, 2020), CanonicalQueryKey("q", 20, 2020));
  EXPECT_NE(CanonicalQueryKey("q", 10, 2020), CanonicalQueryKey("q", 10, 2021));
  EXPECT_NE(CanonicalQueryKey("a b", 10, 2020),
            CanonicalQueryKey("ab", 10, 2020));
  // The field separator cannot be forged from query text: whitespace is
  // collapsed to single spaces, so "q 30" != ("q", seeds=30).
  EXPECT_NE(CanonicalQueryKey("q 30", 10, 2020),
            CanonicalQueryKey("q", 30, 2020));
}

// --------------------------------------------------------------- basics

TEST(QueryCacheTest, MissThenHit) {
  QueryCache cache;
  EXPECT_FALSE(cache.Lookup("k").has_value());
  CachedResult r = MakeResult(4);
  cache.Insert("k", r);
  auto hit = cache.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->negative());
  EXPECT_EQ(hit->result.get(), r.get());  // shared, not copied
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(QueryCacheTest, InsertReplacesExisting) {
  QueryCacheOptions options;
  options.num_shards = 1;
  QueryCache cache(options);
  cache.Insert("k", MakeResult(4));
  CachedResult replacement = MakeResult(8);
  cache.Insert("k", replacement);
  EXPECT_EQ(cache.Stats().entries, 1u);
  EXPECT_EQ(cache.Lookup("k")->result.get(), replacement.get());
}

TEST(QueryCacheTest, ClearDropsEntriesKeepsCounters) {
  QueryCache cache;
  cache.Insert("a", MakeResult(4));
  cache.Insert("b", MakeResult(4));
  cache.Lookup("a");
  cache.Clear();
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_FALSE(cache.Lookup("a").has_value());
}

// ------------------------------------------------------ negative caching

TEST(QueryCacheTest, NegativeEntryRemembersStatus) {
  QueryCacheOptions options;
  options.num_shards = 1;
  QueryCache cache(options);
  cache.InsertNegative("bad", Status::NotFound("no hits for query"));
  auto hit = cache.Lookup("bad");
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->negative());
  EXPECT_EQ(hit->result, nullptr);
  EXPECT_TRUE(hit->status.IsNotFound());
  EXPECT_EQ(hit->status.message(), "no hits for query");
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.negative_insertions, 1u);
  EXPECT_EQ(stats.negative_hits, 1u);
  EXPECT_EQ(stats.negative_entries, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits, 0u);  // positive hits stay separate
  EXPECT_GT(stats.bytes, 0u);
}

TEST(QueryCacheTest, OkStatusNeverCachedAsNegative) {
  QueryCache cache;
  cache.InsertNegative("k", Status::OK());
  EXPECT_FALSE(cache.Lookup("k").has_value());
}

TEST(QueryCacheTest, PositiveInsertReplacesNegativeEntry) {
  QueryCacheOptions options;
  options.num_shards = 1;
  QueryCache cache(options);
  cache.InsertNegative("k", Status::NotFound("transiently hopeless"));
  CachedResult r = MakeResult(4);
  cache.Insert("k", r);
  auto hit = cache.Lookup("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->negative());
  EXPECT_EQ(hit->result.get(), r.get());
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.negative_entries, 0u);  // replaced, count adjusted
}

TEST(QueryCacheTest, NegativeEntriesShareLruAndEvict) {
  QueryCacheOptions options;
  options.num_shards = 1;
  options.max_entries = 2;
  options.max_bytes = 0;
  QueryCache cache(options);
  cache.InsertNegative("n1", Status::NotFound("x"));
  cache.Insert("p1", MakeResult(1));
  cache.Insert("p2", MakeResult(1));  // evicts n1 (LRU tail)
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.negative_entries, 0u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_FALSE(cache.Lookup("n1").has_value());
}

// ------------------------------------------------- capacity + eviction

TEST(QueryCacheTest, EntryCapacityEvictsLru) {
  QueryCacheOptions options;
  options.num_shards = 1;
  options.max_entries = 3;
  options.max_bytes = 0;  // entries only
  QueryCache cache(options);
  cache.Insert("a", MakeResult(1));
  cache.Insert("b", MakeResult(1));
  cache.Insert("c", MakeResult(1));
  cache.Lookup("a");  // refresh a: LRU order is now b < c < a
  cache.Insert("d", MakeResult(1));
  EXPECT_EQ(cache.Stats().entries, 3u);
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_FALSE(cache.Lookup("b").has_value());  // b was least recent
  EXPECT_TRUE(cache.Lookup("a").has_value());
  EXPECT_TRUE(cache.Lookup("c").has_value());
  EXPECT_TRUE(cache.Lookup("d").has_value());
}

TEST(QueryCacheTest, ByteCapacityAccountingAndEviction) {
  CachedResult small = MakeResult(16);
  size_t unit = EstimateResultBytes(*small);
  QueryCacheOptions options;
  options.num_shards = 1;
  options.max_entries = 0;
  options.max_bytes = unit * 3 + unit / 2;  // fits 3, not 4
  QueryCache cache(options);
  cache.Insert("a", MakeResult(16));
  cache.Insert("b", MakeResult(16));
  cache.Insert("c", MakeResult(16));
  QueryCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes, 3 * unit);
  cache.Insert("d", MakeResult(16));
  stats = cache.Stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, options.max_bytes);
  EXPECT_FALSE(cache.Lookup("a").has_value());
}

TEST(QueryCacheTest, OversizedEntryNotCached) {
  CachedResult big = MakeResult(100000);
  QueryCacheOptions options;
  options.num_shards = 1;
  options.max_bytes = 1024;
  QueryCache cache(options);
  cache.Insert("big", big);
  EXPECT_EQ(cache.Stats().entries, 0u);
  EXPECT_FALSE(cache.Lookup("big").has_value());
}

TEST(QueryCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  QueryCacheOptions options;
  options.num_shards = 5;
  QueryCache cache(options);
  EXPECT_EQ(cache.num_shards(), 8u);
  options.num_shards = 0;
  QueryCache one(options);
  EXPECT_EQ(one.num_shards(), 1u);
}

// ---------------------------------------------------------- concurrency

TEST(QueryCacheTest, ConcurrentMixedTraffic) {
  QueryCacheOptions options;
  options.max_entries = 64;
  QueryCache cache(options);
  constexpr int kThreads = 8, kOps = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOps; ++i) {
        std::string key = "k" + std::to_string((t * 7 + i) % 100);
        if (i % 3 == 0) {
          cache.Insert(key, MakeResult(8));
        } else {
          auto hit = cache.Lookup(key);
          if (hit) EXPECT_EQ(hit->result->ranked.size(), 8u);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  QueryCacheStats stats = cache.Stats();
  EXPECT_LE(stats.entries, 64u);
  // Per thread: 167 inserts (i % 3 == 0), 333 lookups.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * (kOps * 2 / 3));
}

}  // namespace
}  // namespace rpg::serve
