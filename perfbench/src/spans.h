#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

/// \file
/// The traced run's span store. The benchmark wraps each public call it
/// makes into a layer in a span (name, start, end, parent, request id);
/// spans are kept in memory and written out when the run ends. A span's
/// self time is its length minus the part of it that its direct children
/// cover, counting overlapping children once.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();
/// This thread's CPU time in nanoseconds (CLOCK_THREAD_CPUTIME_ID).
int64_t ThreadCpuNs();

struct Span {
  const char* name = "";  ///< static string, e.g. "ui.request"
  uint64_t id = 0;        ///< unique within a run; 0 is "no span"
  uint64_t parent = 0;    ///< id of the causing span, 0 for a root
  uint64_t request = 0;   ///< request id shared by one request's spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Thread-safe append-only span store.
class SpanStore {
 public:
  void Add(const Span& span);
  /// A copy of every span recorded so far.
  std::vector<Span> Snapshot() const;
  /// Writes one JSON object per line; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span in `spans` (same order): its length minus the
/// union of its direct children's intervals clipped to its own interval.
/// Children are matched by `parent` id; grandchildren count only toward
/// their own parent.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
