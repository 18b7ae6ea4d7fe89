#include "serve/solve_queue.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

#include "serve_test_util.h"

namespace rpg::serve {
namespace {

using Outcome = Result<core::RePagerResult>;

core::BatchQuery MakeQuery(size_t bank_index) {
  const auto& entry = SharedWorkbench().bank().Get(bank_index);
  core::BatchQuery q;
  q.query = entry.query;
  q.options.year_cutoff = entry.year;
  q.repager = Epoch::RepagerHandle(WorkbenchEpoch(SharedWorkbench()));
  return q;
}

/// A completion callback that blocks its worker for `stall` before
/// delivering the outcome into `promise` — how these tests wedge a
/// worker deterministically, independent of solve speed.
SolveQueue::Callback StallThen(std::chrono::milliseconds stall,
                               std::shared_ptr<std::promise<Outcome>> promise) {
  return [stall, promise](Outcome r) {
    std::this_thread::sleep_for(stall);
    promise->set_value(std::move(r));
  };
}

TEST(SolveQueueTest, ResultsMatchSerialGenerateBitForBit) {
  const eval::Workbench& wb = SharedWorkbench();
  SolveQueue queue(2);
  std::vector<core::BatchQuery> queries;
  for (size_t i = 0; i < 4; ++i) queries.push_back(MakeQuery(i));
  std::vector<std::future<Outcome>> futures;
  for (const auto& q : queries) {
    futures.push_back(AsFuture<Outcome>([&](auto done) {
      queue.SubmitAsync(q, done);
    }));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    Outcome queued = futures[i].get();
    auto serial = wb.repager().Generate(queries[i].query, queries[i].options);
    ASSERT_EQ(queued.ok(), serial.ok());
    if (!queued.ok()) continue;
    EXPECT_EQ(queued->ranked, serial->ranked);
    EXPECT_EQ(queued->path.nodes(), serial->path.nodes());
    EXPECT_EQ(queued->path.edges(), serial->path.edges());
    EXPECT_EQ(queued->initial_seeds, serial->initial_seeds);
    EXPECT_EQ(queued->terminals, serial->terminals);
  }
  SolveQueueStats stats = queue.Stats();
  EXPECT_EQ(stats.requests, queries.size());
  EXPECT_EQ(stats.solves, queries.size());
}

TEST(SolveQueueTest, PerQueryErrorsLandInTheirSlot) {
  SolveQueue queue(2);
  core::BatchQuery hopeless = MakeQuery(0);
  hopeless.query = "zzzz qqqq wwww";
  auto bad = AsFuture<Outcome>([&](auto done) {
    queue.SubmitAsync(hopeless, done);
  });
  auto good = AsFuture<Outcome>([&](auto done) {
    queue.SubmitAsync(MakeQuery(0), done);
  });
  EXPECT_FALSE(bad.get().ok());
  EXPECT_TRUE(good.get().ok());
}

// The worker that dequeues a query also completes it, so one slow
// completion cannot hold back another worker's. Query A's callback waits
// until query B's callback has fired; with two workers B completes on
// the other one and A is released.
TEST(SolveQueueTest, OneCompletionDoesNotConvoyAnother) {
  SolveQueue queue(2);
  std::promise<void> b_fired;
  std::shared_future<void> b_done = b_fired.get_future().share();
  auto a = AsFuture<bool>([&](auto done) {
    queue.SubmitAsync(MakeQuery(0), [b_done, done](Outcome r) {
      const bool released = b_done.wait_for(std::chrono::seconds(10)) ==
                            std::future_status::ready;
      done(r.ok() && released);
    });
  });
  queue.SubmitAsync(MakeQuery(1), [&b_fired](Outcome r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    b_fired.set_value();
  });
  EXPECT_TRUE(a.get()) << "query A's completion was never released";
}

// One worker pops one FIFO, so completions arrive in admission order
// even when a cheap query (empty text, rejected at once) follows an
// expensive one that a second worker would let it overtake.
TEST(SolveQueueTest, SingleWorkerCompletesInAdmissionOrder) {
  constexpr int kQueries = 8;
  std::mutex mu;
  std::vector<int> order;
  std::latch done(kQueries);
  SolveQueue queue(1, {.max_queue_depth = 0});
  for (int i = 0; i < kQueries; ++i) {
    core::BatchQuery q = MakeQuery(static_cast<size_t>(i));
    if (i % 2 == 1) q.query.clear();
    queue.SubmitAsync(std::move(q), [i, &mu, &order, &done](Outcome) {
      {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      }
      done.count_down();
    });
  }
  done.wait();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(order.size(), static_cast<size_t>(kQueries));
  for (int i = 0; i < kQueries; ++i) EXPECT_EQ(order[i], i);
}

TEST(SolveQueueTest, EverySubmissionCompletesExactlyOnce) {
  constexpr size_t kQueries = 200;
  std::array<std::atomic<int>, kQueries> completions{};
  SolveQueue queue(4, {.max_queue_depth = 0});
  for (size_t i = 0; i < kQueries; ++i) {
    core::BatchQuery q = MakeQuery(0);
    q.query.clear();  // cheap: fails InvalidArgument without a solve
    queue.SubmitAsync(std::move(q), [i, &completions](Outcome r) {
      EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
      completions[i].fetch_add(1);
    });
  }
  queue.Shutdown();  // drains and joins: every callback has returned
  for (size_t i = 0; i < kQueries; ++i) {
    EXPECT_EQ(completions[i].load(), 1) << "query " << i;
  }
  SolveQueueStats stats = queue.Stats();
  EXPECT_EQ(stats.requests, kQueries);
  EXPECT_EQ(stats.solves, kQueries);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(SolveQueueTest, QueueBoundShedsWithUnavailable) {
  SolveQueue queue(1, {.max_queue_depth = 1});
  // Wedge the only worker in a completion, and wait until it has left
  // the queue, so the backlog below is exact.
  auto first = std::make_shared<std::promise<Outcome>>();
  std::future<Outcome> first_done = first->get_future();
  queue.SubmitAsync(MakeQuery(0),
                    StallThen(std::chrono::milliseconds(200), first));
  while (queue.Stats().queue_depth != 0) std::this_thread::yield();
  // A burst past the bound: one query waits, the rest must shed inline
  // with Unavailable, not queue without limit.
  constexpr int kBurst = 6;
  std::vector<std::future<Outcome>> futures;
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(AsFuture<Outcome>([&](auto done) {
      queue.SubmitAsync(MakeQuery(0), done);
    }));
  }
  EXPECT_TRUE(first_done.get().ok());
  EXPECT_TRUE(futures[0].get().ok());
  for (int i = 1; i < kBurst; ++i) {
    Outcome r = futures[i].get();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
    EXPECT_GE(r.status().retry_after_seconds(), 1);
    EXPECT_LE(r.status().retry_after_seconds(), 30);
  }
  SolveQueueStats stats = queue.Stats();
  EXPECT_EQ(stats.rejected_overload, static_cast<uint64_t>(kBurst - 1));
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);  // everything drained or shed
}

TEST(SolveQueueTest, UnboundedQueueNeverSheds) {
  SolveQueue queue(1, {.max_queue_depth = 0});  // explicit opt-out
  std::vector<std::future<Outcome>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(AsFuture<Outcome>([&](auto done) {
      queue.SubmitAsync(MakeQuery(0), done);
    }));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(queue.Stats().rejected_overload, 0u);
}

TEST(SolveQueueTest, QueueDeadlineExpiresStaleEntries) {
  SolveQueue queue(1, {.max_queue_depth = 0,
                       .queue_deadline = std::chrono::milliseconds(50)});
  // The first query's completion sleeps on the only worker, so every
  // query behind it ages past the 50 ms deadline before a worker starts
  // it.
  auto first = std::make_shared<std::promise<Outcome>>();
  std::future<Outcome> first_done = first->get_future();
  queue.SubmitAsync(MakeQuery(0),
                    StallThen(std::chrono::milliseconds(250), first));
  constexpr int kBehind = 3;
  std::vector<std::future<Outcome>> futures;
  for (int i = 0; i < kBehind; ++i) {
    futures.push_back(AsFuture<Outcome>([&](auto done) {
      queue.SubmitAsync(MakeQuery(0), done);
    }));
  }
  EXPECT_TRUE(first_done.get().ok());
  for (auto& f : futures) {
    Outcome r = f.get();
    ASSERT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status().ToString();
    // The expiry carries a measured Retry-After hint in its clamp.
    EXPECT_GE(r.status().retry_after_seconds(), 1);
    EXPECT_LE(r.status().retry_after_seconds(), 30);
  }
  SolveQueueStats stats = queue.Stats();
  EXPECT_EQ(stats.deadline_expired, static_cast<uint64_t>(kBehind));
  EXPECT_EQ(stats.solves, 1u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(SolveQueueTest, QueueDeadlineDisabledByDefault) {
  SolveQueue queue(1);
  // Same wedge as above, but with queue_deadline at its 0 default every
  // query waits out the stall and still computes.
  auto first = std::make_shared<std::promise<Outcome>>();
  std::future<Outcome> first_done = first->get_future();
  queue.SubmitAsync(MakeQuery(0),
                    StallThen(std::chrono::milliseconds(100), first));
  std::vector<std::future<Outcome>> futures;
  for (int i = 0; i < 2; ++i) {
    futures.push_back(AsFuture<Outcome>([&](auto done) {
      queue.SubmitAsync(MakeQuery(0), done);
    }));
  }
  EXPECT_TRUE(first_done.get().ok());
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(queue.Stats().deadline_expired, 0u);
}

TEST(SolveQueueTest, SolveTimeEwmaTracksSolves) {
  SolveQueue queue(2);
  EXPECT_EQ(queue.Stats().ewma_solve_seconds, 0.0);  // no samples yet
  auto r = AsFuture<Outcome>([&](auto done) {
    queue.SubmitAsync(MakeQuery(0), done);
  }).get();
  ASSERT_TRUE(r.ok());
  // One real solve has been measured; the EWMA is seeded with it.
  EXPECT_GT(queue.Stats().ewma_solve_seconds, 0.0);
  EXPECT_LT(queue.Stats().ewma_solve_seconds, 60.0);  // sanity
}

TEST(SolveQueueTest, ShutdownDrainsQueuedRequests) {
  auto queue = std::make_unique<SolveQueue>(1);
  std::vector<std::future<Outcome>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(AsFuture<Outcome>([&](auto done) {
      queue->SubmitAsync(MakeQuery(0), done);
    }));
  }
  queue->Shutdown();  // must not drop the queued work
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  // Submitting after shutdown fails cleanly instead of hanging.
  auto late = AsFuture<Outcome>([&](auto done) {
    queue->SubmitAsync(MakeQuery(0), done);
  });
  Outcome rejected = late.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition)
      << rejected.status().ToString();
}

}  // namespace
}  // namespace rpg::serve
