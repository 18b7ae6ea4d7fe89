#include "spans.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t NowNs() { return ClockNs(CLOCK_MONOTONIC); }
int64_t ThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

void SpanStore::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> SpanStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t SpanStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanStore::WriteJsonLines(const std::string& path) const {
  std::vector<Span> spans = Snapshot();
  std::vector<int64_t> self = SelfTimesNs(spans);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"self_ns\":%lld}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;

  // Direct children's intervals, clipped to the parent's interval.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& child : spans) {
    if (child.parent == 0) continue;
    auto it = index_of.find(child.parent);
    if (it == index_of.end()) continue;
    const Span& parent = spans[it->second];
    int64_t lo = std::max(child.start_ns, parent.start_ns);
    int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (lo < hi) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t union_ns = 0, run_lo = 0, run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - union_ns;
  }
  return self;
}

}  // namespace perfbench
