#ifndef RPG_SERVE_SOLVE_QUEUE_H_
#define RPG_SERVE_SOLVE_QUEUE_H_

/// \file
/// The serving tier's solver pool: an admission queue and the worker
/// threads that drain it. Each admitted query waits in one FIFO; the
/// worker that dequeues it solves it (core::SolveQuery) and fires its
/// callback. There is no batching and no flush window: a query arriving
/// at an idle pool starts on the next free worker at once. Offline
/// batches (bench_table4_runtime, the batched identity tests) submit to
/// the same queue with `max_queue_depth = 0` and wait for every
/// completion.
///
/// Admission control:
///  - `max_queue_depth` bounds the queries admitted but not yet started;
///    a submission past it is shed inline with Status::Unavailable.
///  - `queue_deadline` expires a query that has waited longer than that
///    when a worker starts it, with Status::DeadlineExceeded.
///  - Both statuses carry a Retry-After hint: the measured time to drain
///    the backlog, ceil(queue depth × EWMA(solve seconds) / threads),
///    clamped to [1, 30] seconds.
///
/// Ownership / thread-safety model:
///  - The queue owns its worker threads and its one mutex; an admitted
///    query takes that mutex three times (admission, worker start,
///    solve-time EWMA), never nested.
///  - SubmitAsync() is safe from any thread; its callback runs on the
///    worker that solved (or expired) the query, or inline on the
///    caller when the query is shed or the queue is shut down.
///  - Shutdown() (or the destructor) drains everything already admitted
///    before joining the workers; no admitted query is dropped.
///    Submitting after Shutdown() completes inline with
///    FailedPrecondition.
///  - Each solve gets a fresh core::QueryScratch.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/solve_query.h"

namespace rpg::serve {

struct SolveQueueOptions {
  /// Overload bound: a submission arriving when this many queries are
  /// already waiting for a worker is rejected inline with
  /// Status::Unavailable (load shedding — the serving edge maps it to
  /// 429). The total backlog is bounded by max_queue_depth + the queries
  /// the workers are solving. 0 = unbounded.
  size_t max_queue_depth = 256;
  /// Per-query queue deadline: a query that has already waited longer
  /// than this when a worker starts it is completed with
  /// Status::DeadlineExceeded instead of being solved — under sustained
  /// overload, work nobody is waiting for anymore is dropped before it
  /// wastes a worker. 0 = disabled.
  std::chrono::milliseconds queue_deadline{0};
};

/// Point-in-time admission counters.
struct SolveQueueStats {
  /// Queries admitted to the queue.
  uint64_t requests = 0;
  /// Queries a worker started solving (admitted minus expired, once the
  /// queue is idle).
  uint64_t solves = 0;
  /// Submissions shed with Unavailable because the queue was full.
  uint64_t rejected_overload = 0;
  /// Admitted queries expired with DeadlineExceeded (waited past
  /// queue_deadline before a worker got to them).
  uint64_t deadline_expired = 0;
  /// Queries waiting for a worker right now (the overload gauge;
  /// excludes the queries being solved).
  size_t queue_depth = 0;
  /// EWMA of per-query solve wall time (seconds); 0 until the first
  /// solve completes.
  double ewma_solve_seconds = 0;
};

class SolveQueue {
 public:
  /// Starts `num_threads` workers (<= 0 means hardware_concurrency).
  explicit SolveQueue(int num_threads, SolveQueueOptions options = {});
  ~SolveQueue();

  SolveQueue(const SolveQueue&) = delete;
  SolveQueue& operator=(const SolveQueue&) = delete;

  /// Completion callback for SubmitAsync: invoked exactly once. It must
  /// not throw: it runs on a worker thread (or inline on the submitter
  /// when the query is shed), where an exception would end the process.
  using Callback = std::function<void(Result<core::RePagerResult>)>;

  /// Admits one query (its `repager` set); `callback` receives the
  /// solve's result (errors land in the Result, not as exceptions). No
  /// thread blocks: the completion is delivered by the worker that
  /// solved the query, which is what lets epoll poller threads hand off
  /// compute without pinning themselves (docs/serving.md).
  void SubmitAsync(core::BatchQuery query, Callback callback);

  /// Drains admitted queries, then joins the workers. Idempotent.
  void Shutdown();

  SolveQueueStats Stats() const;

  size_t num_threads() const { return workers_.size(); }

 private:
  struct Task {
    core::BatchQuery query;
    Callback callback;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Worker body: pops admitted queries in FIFO order, expires or
  /// solves each and completes it; returns once shut down and drained.
  void WorkerLoop();
  /// Retry-After hint for a status completed right now: the backlog
  /// drain time in whole seconds, clamped to [1, 30]. Requires mu_.
  int RetryAfterSecondsLocked() const;

  const SolveQueueOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Admitted queries no worker has started yet (guarded by mu_).
  std::deque<Task> queue_;
  bool shutdown_ = false;
  SolveQueueStats stats_;

  /// Declared last: the workers start after the state they touch.
  std::vector<std::thread> workers_;
};

}  // namespace rpg::serve

#endif  // RPG_SERVE_SOLVE_QUEUE_H_
