#include "serve/solve_queue.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"

namespace rpg::serve {

namespace {
/// EWMA smoothing for per-query solve time: ~0.2 weights the last dozen
/// or so solves, enough to track load shifts without flapping the
/// Retry-After hint on every outlier.
constexpr double kEwmaAlpha = 0.2;

/// Worker count for `requested` threads: itself when positive, else
/// std::thread::hardware_concurrency() (at least 1).
size_t ResolveThreads(int requested) {
  if (requested > 0) return static_cast<size_t>(requested);
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}
}  // namespace

SolveQueue::SolveQueue(int num_threads, SolveQueueOptions options)
    : options_(options) {
  const size_t n = ResolveThreads(num_threads);
  workers_.reserve(n);
  try {
    for (size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (...) {
    // A thread that cannot be started throws; join the ones that did
    // start, since destroying a joinable std::thread ends the process.
    Shutdown();
    throw;
  }
}

SolveQueue::~SolveQueue() { Shutdown(); }

void SolveQueue::SubmitAsync(core::BatchQuery query, Callback callback) {
  RPG_CHECK(query.repager != nullptr);
  Status rejected = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      rejected = Status::FailedPrecondition("SolveQueue is shut down");
    } else if (options_.max_queue_depth > 0 &&
               queue_.size() >= options_.max_queue_depth) {
      // Overload shed: beyond this point queueing only grows latency
      // for everyone; better to fail fast and let the client retry when
      // the backlog has drained.
      ++stats_.rejected_overload;
      rejected = Status::Unavailable(
                     "solve queue full (" +
                     std::to_string(options_.max_queue_depth) + " waiting)")
                     .WithRetryAfter(RetryAfterSecondsLocked());
    } else {
      ++stats_.requests;
      // Admitted under mu_: Shutdown() raises shutdown_ under the same
      // mutex, so an admitted query is always drained by a live worker.
      queue_.push_back({std::move(query), std::move(callback),
                        std::chrono::steady_clock::now()});
    }
  }
  if (rejected.ok()) {
    cv_.notify_one();
    return;
  }
  // Rejected: complete inline on the caller (never under mu_).
  callback(std::move(rejected));
}

void SolveQueue::WorkerLoop() {
  for (;;) {
    Task task;
    std::chrono::steady_clock::time_point started;
    bool expired = false;
    int retry_after = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      // Drain before exiting so Shutdown() == "finish all admitted work".
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      started = std::chrono::steady_clock::now();
      expired = options_.queue_deadline.count() > 0 &&
                started - task.enqueued > options_.queue_deadline;
      if (expired) {
        ++stats_.deadline_expired;
        retry_after = RetryAfterSecondsLocked();
      } else {
        ++stats_.solves;
      }
    }
    if (expired) {
      task.callback(
          Status::DeadlineExceeded("request expired in solve queue")
              .WithRetryAfter(retry_after));
      continue;
    }
    // Queue-time span: admission (any submitter thread) -> worker start;
    // the hand-off through mu_ orders the submitter's earlier trace
    // writes before ours.
    if (task.query.trace) {
      task.query.trace->AddSpanBetween(obs::Stage::kBatchQueue,
                                       task.enqueued, started);
    }
    core::QueryScratch scratch;
    Timer solve;
    Result<core::RePagerResult> result =
        core::SolveQuery(task.query, &scratch);
    const double seconds = solve.ElapsedSeconds();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.ewma_solve_seconds =
          stats_.ewma_solve_seconds == 0
              ? seconds
              : kEwmaAlpha * seconds +
                    (1 - kEwmaAlpha) * stats_.ewma_solve_seconds;
    }
    task.callback(std::move(result));
  }
}

void SolveQueue::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

SolveQueueStats SolveQueue::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SolveQueueStats stats = stats_;
  stats.queue_depth = queue_.size();
  return stats;
}

int SolveQueue::RetryAfterSecondsLocked() const {
  const double drain = static_cast<double>(queue_.size()) *
                       stats_.ewma_solve_seconds /
                       static_cast<double>(workers_.size());
  return static_cast<int>(std::clamp(std::ceil(drain), 1.0, 30.0));
}

}  // namespace rpg::serve
