#include "serve/solve_queue.h"

#include <algorithm>
#include <cmath>
#include <exception>
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
}  // namespace

SolveQueue::SolveQueue(int num_threads, SolveQueueOptions options)
    : options_(options), pool_(core::ResolveThreads(num_threads)) {}

SolveQueue::~SolveQueue() { Shutdown(); }

void SolveQueue::SubmitAsync(core::BatchQuery query, Callback callback) {
  RPG_CHECK(query.repager != nullptr);
  Status rejected = Status::OK();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      rejected = Status::FailedPrecondition("SolveQueue is shut down");
    } else if (options_.max_queue_depth > 0 &&
               waiting_ >= options_.max_queue_depth) {
      // Overload shed: beyond this point queueing only grows latency
      // for everyone; better to fail fast and let the client retry when
      // the backlog has drained.
      ++stats_.rejected_overload;
      rejected = Status::Unavailable(
                     "solve queue full (" +
                     std::to_string(options_.max_queue_depth) + " waiting)")
                     .WithRetryAfter(RetryAfterSecondsLocked());
    } else {
      ++waiting_;
      ++stats_.requests;
      // Submitted under mu_: Shutdown() raises shutdown_ under the same
      // mutex before it stops the pool, so an admitted query always
      // reaches a live pool.
      pool_.Submit([this, query = std::move(query),
                    callback = std::move(callback),
                    enqueued = std::chrono::steady_clock::now()]() mutable {
        Run(query, callback, enqueued);
      });
      return;
    }
  }
  // Rejected: complete inline on the caller (never under mu_).
  callback(std::move(rejected));
}

void SolveQueue::Run(const core::BatchQuery& query, const Callback& callback,
                     std::chrono::steady_clock::time_point enqueued) {
  const auto started = std::chrono::steady_clock::now();
  bool expired = false;
  int retry_after = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    --waiting_;
    expired = options_.queue_deadline.count() > 0 &&
              started - enqueued > options_.queue_deadline;
    if (expired) {
      ++stats_.deadline_expired;
      retry_after = RetryAfterSecondsLocked();
    } else {
      ++stats_.solves;
    }
  }
  if (expired) {
    callback(Status::DeadlineExceeded("request expired in solve queue")
                 .WithRetryAfter(retry_after));
    return;
  }
  // Queue-time span: admission (any submitter thread) -> worker start;
  // the hand-off through the pool queue orders the submitter's earlier
  // trace writes before ours.
  if (query.trace) {
    query.trace->AddSpanBetween(obs::Stage::kBatchQueue, enqueued, started);
  }
  core::QueryScratch scratch;
  Timer solve;
  Result<core::RePagerResult> result = Status::Internal("solve not run");
  try {
    result = core::SolveQuery(query, &scratch);
  } catch (const std::exception& e) {
    // The pool would park the exception in a future nobody reads; the
    // caller is waiting on this callback, so forward it there instead.
    result = Status::Internal(std::string("solve threw: ") + e.what());
  }
  const double seconds = solve.ElapsedSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.ewma_solve_seconds =
        stats_.ewma_solve_seconds == 0
            ? seconds
            : kEwmaAlpha * seconds +
                  (1 - kEwmaAlpha) * stats_.ewma_solve_seconds;
  }
  callback(std::move(result));
}

void SolveQueue::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  pool_.Shutdown();
}

SolveQueueStats SolveQueue::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SolveQueueStats stats = stats_;
  stats.queue_depth = waiting_;
  return stats;
}

int SolveQueue::RetryAfterSecondsLocked() const {
  const double drain = static_cast<double>(waiting_) *
                       stats_.ewma_solve_seconds /
                       static_cast<double>(pool_.num_threads());
  return static_cast<int>(std::clamp(std::ceil(drain), 1.0, 30.0));
}

}  // namespace rpg::serve
