#ifndef RPG_TESTS_SERVE_SERVE_TEST_UTIL_H_
#define RPG_TESTS_SERVE_SERVE_TEST_UTIL_H_

#include <future>
#include <memory>
#include <utility>

#include "eval/workbench.h"
#include "serve/epoch.h"

namespace rpg::serve {

/// Process-wide small workbench shared by every serve suite (built once,
/// intentionally leaked — the corpus build dominates test time).
inline const eval::Workbench& SharedWorkbench() {
  static const eval::Workbench* wb = [] {
    eval::WorkbenchOptions options;
    options.corpus.hierarchy.areas_per_domain = 2;
    options.corpus.hierarchy.topics_per_area = 2;
    options.corpus.papers_per_topic = 50;
    options.corpus.papers_per_area = 15;
    options.corpus.papers_per_domain = 10;
    options.corpus.num_surveys = 40;
    options.corpus.seed = 55;
    return eval::Workbench::Create(options).value().release();
  }();
  return *wb;
}

/// A serving epoch over `wb`'s substrate; `wb` must outlive it.
inline EpochHandle WorkbenchEpoch(const eval::Workbench& wb) {
  return Epoch::Create(&wb.repager(), &wb.titles(), &wb.years(), nullptr,
                       {.id = 1, .source = "in-process"});
}

/// The tests' one bridge from the callback-style serving API
/// (ServeEngine::GenerateAsync, SolveQueue::SubmitAsync,
/// RePagerService::HandleAsync) to a future: `start` receives the
/// completion callback and makes the call; `.get()` on the result waits
/// for the value delivered to that callback. The callback owns the
/// promise, so a completion still inside set_value when the waiter wakes
/// touches nothing the waiter frees.
template <typename T, typename Start>
std::future<T> AsFuture(Start start) {
  auto promise = std::make_shared<std::promise<T>>();
  std::future<T> future = promise->get_future();
  start([promise](T value) { promise->set_value(std::move(value)); });
  return future;
}

}  // namespace rpg::serve

#endif  // RPG_TESTS_SERVE_SERVE_TEST_UTIL_H_
