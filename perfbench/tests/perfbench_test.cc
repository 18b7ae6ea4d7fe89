// Tests for the benchmark's own logic: the percentile rule, open-loop
// timing, the unique_misses key stream, span self time, and the answer
// fingerprint. Build and run with `python3 perfbench/run.py --self-test`.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "answers.h"
#include "serve/query_cache.h"
#include "spans.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileRule, P99NeedsTenSamplesBeyond) {
  std::vector<double> v = OneTo(1000);
  auto p99 = PercentileOf(&v, 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_EQ(p99->value, 990);  // nearest rank: ceil(0.99 * 1000)
  EXPECT_EQ(p99->samples, 1000u);
  EXPECT_EQ(p99->beyond, 10u);

  std::vector<double> short_by_one = OneTo(999);
  EXPECT_FALSE(PercentileOf(&short_by_one, 0.99).has_value());
}

TEST(PercentileRule, MedianNeedsTwentySamples) {
  std::vector<double> v = OneTo(20);
  auto p50 = MedianOf(&v);
  ASSERT_TRUE(p50.has_value());
  EXPECT_EQ(p50->value, 10);
  EXPECT_EQ(p50->beyond, 10u);
  std::vector<double> nineteen = OneTo(19);
  EXPECT_FALSE(MedianOf(&nineteen).has_value());
}

TEST(PercentileRule, P97OfAWindow) {
  std::vector<double> v = OneTo(334);  // the smallest window a p97 allows
  auto p97 = PercentileOf(&v, 0.97);
  ASSERT_TRUE(p97.has_value());
  EXPECT_EQ(p97->value, 324);
  EXPECT_EQ(p97->beyond, 10u);
  std::vector<double> small = OneTo(333);
  EXPECT_FALSE(PercentileOf(&small, 0.97).has_value());
}

TEST(PercentileRule, EmptyAndPlainMedian) {
  std::vector<double> empty;
  EXPECT_FALSE(PercentileOf(&empty, 0.5, 0).has_value());
  EXPECT_EQ(PlainMedian({}), 0.0);
  EXPECT_EQ(PlainMedian({3, 1, 2}), 2.0);
  EXPECT_EQ(PlainMedian({4, 1, 3, 2}), 2.5);
}

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // Sent 200 ms late (the generator stalled), answered 300 ms later: the
  // request waited 500 ms from when it was due.
  RequestTimes late{1.0, 1.2, 1.5};
  EXPECT_DOUBLE_EQ(LatencyFromDue(late), 0.5);
  EXPECT_NEAR(Lateness(late), 0.2, 1e-12);

  RequestTimes on_time{1.0, 1.0, 1.01};
  EXPECT_DOUBLE_EQ(Lateness(on_time), 0.0);
  EXPECT_NEAR(LatencyFromDue(on_time), 0.01, 1e-12);
}

TEST(OpenLoop, EvenScheduleSpacing) {
  std::vector<double> due = EvenSchedule(120.0, 10.0);
  ASSERT_EQ(due.size(), 1200u);
  EXPECT_EQ(due.front(), 0.0);
  for (size_t i = 1; i < due.size(); ++i) {
    EXPECT_NEAR(due[i] - due[i - 1], 1.0 / 120.0, 1e-12);
  }
  EXPECT_TRUE(EvenSchedule(0.0, 10.0).empty());
}

std::vector<PathKey> Base() {
  std::vector<PathKey> base;
  for (int i = 0; i < 12; ++i) {
    base.push_back({"topic " + std::to_string(i) + ", methods", 0, 2000 + i});
  }
  // Same request for the server: case and whitespace fold in its cache key.
  base.push_back({"Topic 3,   METHODS", 0, 2003});
  return base;
}

TEST(UniqueMisses, KeysAreDistinctForTheServer) {
  std::vector<PathKey> keys = UniqueMissKeys(Base(), 400, 7);
  ASSERT_EQ(keys.size(), 400u);  // of 12 queries x 41 seeds values
  std::set<std::string> canonical;
  for (const PathKey& k : keys) {
    EXPECT_GE(k.seeds, kMinSeeds);
    EXPECT_LE(k.seeds, kMaxSeeds);
    canonical.insert(rpg::serve::CanonicalQueryKey(k.query, k.seeds, k.year));
  }
  EXPECT_EQ(canonical.size(), keys.size());
}

TEST(UniqueMisses, SameSeedSameKeysAndStablePrefix) {
  std::vector<PathKey> a = UniqueMissKeys(Base(), 300, 42);
  std::vector<PathKey> b = UniqueMissKeys(Base(), 300, 42);
  EXPECT_EQ(a, b);
  // A longer draw extends a shorter one, so skipping a prefix (warm-up,
  // earlier replay passes) leaves keys no earlier request used.
  std::vector<PathKey> longer = UniqueMissKeys(Base(), 450, 42);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), longer.begin()));
  EXPECT_NE(a, UniqueMissKeys(Base(), 300, 43));
}

TEST(UniqueMisses, EachRoundSendsEveryQueryOnce) {
  std::vector<PathKey> keys = UniqueMissKeys(Base(), 3 * 12, 5);
  ASSERT_EQ(keys.size(), 36u);
  for (size_t round = 0; round < 3; ++round) {
    std::set<std::string> queries;
    for (size_t i = round * 12; i < (round + 1) * 12; ++i) {
      queries.insert(keys[i].query);
    }
    EXPECT_EQ(queries.size(), 12u);
  }
}

TEST(UniqueMisses, CrossProductBoundsTheCount) {
  const size_t all = 12 * (kMaxSeeds - kMinSeeds + 1);
  EXPECT_EQ(UniqueMissKeys(Base(), all + 50, 1).size(), all);
}

TEST(HotKeys, FoldsServerDuplicatesAndKeepsBankOrder) {
  std::vector<PathKey> hot = HotKeys(Base());
  ASSERT_EQ(hot.size(), 12u);
  EXPECT_EQ(hot.front().query, "topic 0, methods");
}

TEST(HotKeys, PathTargetEncodesTheQuery) {
  EXPECT_EQ(PathTarget({"graph neural, nets", 0, 2019}),
            "/api/path?q=graph+neural%2C+nets&year=2019");
  EXPECT_EQ(PathTarget({"x", 25, 2000}, 7), "/api/path?q=x&seeds=25&year=2000&rid=7");
}

Span S(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  return {"s", id, parent, 1, start, end};
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Parent [0, 100]; children [10, 40] and [30, 60] overlap on [30, 40].
  std::vector<int64_t> self =
      SelfTimesNs({S(1, 0, 0, 100), S(2, 1, 10, 40), S(3, 1, 30, 60)});
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 30);
}

TEST(SelfTime, NestedSpansChargeOnlyTheirParent) {
  // Root [0, 100] > child [10, 90] > grandchild [20, 80].
  std::vector<int64_t> self =
      SelfTimesNs({S(1, 0, 0, 100), S(2, 1, 10, 90), S(3, 2, 20, 80)});
  EXPECT_EQ(self[0], 20);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 60);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  // A child recorded on another thread can start before or end after its
  // parent's interval; only the overlap is charged. Spans may arrive in
  // any order.
  std::vector<int64_t> self =
      SelfTimesNs({S(2, 1, 90, 130), S(1, 0, 0, 100), S(3, 1, -5, 5)});
  EXPECT_EQ(self[1], 85);
  EXPECT_EQ(self[0], 40);
}

TEST(SelfTime, DisjointChildrenAndOrphans) {
  std::vector<int64_t> self = SelfTimesNs(
      {S(1, 0, 0, 100), S(2, 1, 0, 10), S(3, 1, 50, 60), S(4, 99, 0, 7)});
  EXPECT_EQ(self[0], 80);
  EXPECT_EQ(self[3], 7);  // parent not recorded: all self time
}

TEST(Answers, FingerprintReadsOrderAndNodeIds) {
  const std::string body =
      "{\"query\":\"q\",\"cache_hit\":true,\"nodes\":[{\"id\":7,\"title\":"
      "\"a \\\"id\\\": b\",\"year\":2001},{\"id\":3,\"title\":\"c\"}],"
      "\"edges\":[{\"read_first\":3,\"read_next\":7}],"
      "\"reading_order\":[3,7]}";
  auto fp = AnswerFingerprint(body);
  ASSERT_TRUE(fp.has_value());
  EXPECT_TRUE(AnswerIsCacheHit(body));

  std::string swapped = body;
  swapped.replace(swapped.find("[3,7]"), 5, "[7,3]");
  EXPECT_NE(AnswerFingerprint(swapped), fp);
  EXPECT_FALSE(AnswerFingerprint("{\"error\":\"x\"}").has_value());
}

TEST(Answers, JsonNumberFindsAFieldInASection) {
  const std::string stats =
      "{\"cache\":{\"hits\":5,\"misses\":2},\"batcher\":{\"requests\":9}}";
  EXPECT_EQ(JsonNumber(stats, "cache", "misses"), 2.0);
  EXPECT_EQ(JsonNumber(stats, "batcher", "requests"), 9.0);
  EXPECT_FALSE(JsonNumber(stats, "epoch", "id").has_value());
}

}  // namespace
}  // namespace perfbench
