#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

/// \file
/// The benchmark's workloads and the request streams they generate. The
/// workload seed fixes the query sample, the key sequence and the arrival
/// schedule; the server only ever sees the resulting requests.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One /api/path request key. `seeds == 0` leaves the parameter out, so
/// the server uses its default (30 initial seeds).
struct PathKey {
  std::string query;
  int seeds = 0;
  int year = 0;

  bool operator==(const PathKey& o) const {
    return query == o.query && seeds == o.seeds && year == o.year;
  }
};

enum class WorkloadKind { kHotHits, kUniqueMisses, kReloadChurn };

struct WorkloadSpec {
  WorkloadKind kind;
  const char* name;
  /// Open loop: requests are due on a fixed schedule and timed from their
  /// due time. Closed loop: each connection sends its next request as
  /// soon as the previous one is answered.
  bool open_loop;
  /// Keep-alive connections carrying /api/path reads.
  int read_connections;
  /// Open-loop arrival rate (requests per second).
  double rate_rps;
  /// Seconds between POST /api/admin/reload requests (0 = none during the
  /// timed phase).
  double reload_interval_s;
  /// Latency limit for slo_met_frac.
  double slo_ms;
  /// Length of a measurement window of the timed phase when it has no
  /// reloads (with reloads, one window per reload interval). Each window
  /// must hold the 200 answers its p95 needs.
  double window_s;
};

/// Every workload, in the order the docs list them.
const std::vector<WorkloadSpec>& Workloads();
/// The spec named `name`, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Zipf exponent of the hot-key popularity.
inline constexpr double kZipfS = 1.1;
/// Range of the `seeds` parameter in unique_misses keys, inclusive.
inline constexpr int kMinSeeds = 10;
inline constexpr int kMaxSeeds = 50;

/// The /api/path request target for `key`, with the query percent-encoded
/// and `rid` appended when nonzero (the traced run's request id).
std::string PathTarget(const PathKey& key, uint64_t rid = 0);

/// Distinct keys of `base` in SurveyBank order: index r - 1 is Zipf rank r.
/// The popularity order does not depend on the seed, which only draws the
/// request sequence, so runs with different seeds send the same mix.
std::vector<PathKey> HotKeys(const std::vector<PathKey>& base);

/// `count` distinct keys of the base queries crossed with the `seeds`
/// values in [kMinSeeds, kMaxSeeds], in rounds: each round sends every
/// distinct query once, with a `seeds` value it has not had yet, and the
/// seed draws the order within each round. Round r holds the same keys for
/// every seed, so a stretch of whole rounds sends the same work whatever
/// the seed. Fewer than `count` when the cross product is smaller.
std::vector<PathKey> UniqueMissKeys(const std::vector<PathKey>& base,
                                    size_t count, uint64_t seed);

/// `count` Zipf(kZipfS) ranks in [0, num_keys), zero-based.
std::vector<uint32_t> ZipfSequence(size_t num_keys, size_t count,
                                   uint64_t seed);

/// Due times (seconds from the phase start) of an open loop at `rate_rps`
/// over `seconds`: evenly spaced, so run-to-run spread measures the system
/// rather than the arrival draw.
std::vector<double> EvenSchedule(double rate_rps, double seconds);

/// Timestamps of one request, in seconds from the phase start.
struct RequestTimes {
  double due = 0.0;   ///< when the schedule wanted it sent
  double sent = 0.0;  ///< when the generator sent it
  double done = 0.0;  ///< when the answer was read
};

/// Latency is timed from the due time: a stall in the generator or the
/// server delays later requests, and that wait counts.
inline double LatencyFromDue(const RequestTimes& t) { return t.done - t.due; }
/// How late the generator sent the request (0 when on time).
inline double Lateness(const RequestTimes& t) {
  return t.sent > t.due ? t.sent - t.due : 0.0;
}

/// A derived stream seed, so each connection and each sequence of one run
/// draws independently from the workload seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
