#ifndef PERFBENCH_PHASE_H_
#define PERFBENCH_PHASE_H_

/// \file
/// The load generator's request phases, shared by the end-to-end run
/// (against the separate serve_ui process) and the traced run (against an
/// in-process copy of the same serving stack), plus set-up, the
/// reference that checks every answer, and result printing.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/repager.h"
#include "process.h"
#include "snapshot/serving_state.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_ui;  ///< serve_ui binary
  std::string workdir;   ///< scratch directory inside the checkout
};

/// What the timed phase sends. Open loop: request i goes out at due[i]
/// with key key_of[i]. Closed loop: each connection draws Zipf ranks from
/// its own stream of `seed` until `seconds` have passed.
struct Plan {
  const WorkloadSpec* spec = nullptr;
  std::vector<PathKey> keys;
  std::vector<double> due;
  std::vector<uint32_t> key_of;
  uint64_t seed = 0;
  double seconds = 0.0;
  /// Due times of POST /api/admin/reload on the extra connection.
  std::vector<double> reload_due;
  std::string reload_body;  ///< the snapshot path the server reloads
  /// CPUs the load threads run on (empty: any).
  CpuRange client_cpus;
};

/// The timed phase's plan for `spec`. `base` is the SurveyBank key list;
/// `first_unique` skips that many unique_misses keys (so repeated passes
/// stay misses).
Plan MakePlan(const WorkloadSpec& spec, const std::vector<PathKey>& base,
              uint64_t seed, double seconds, const std::string& snapshot,
              size_t first_unique = 0);

/// One answered (or failed) request.
struct Sample {
  uint32_t key = 0;  ///< index into Plan::keys (reloads: 0)
  int status = 0;    ///< HTTP status, 0 when the transport failed
  std::optional<uint64_t> fingerprint;  ///< /api/path answers only
  bool cache_hit = false;
  bool reload_ok = false;  ///< reloads: body says "reloaded":true
  uint32_t bytes = 0;      ///< response body size
  /// serve_seconds - seconds on misses (queue wait inside the server), in
  /// ms; negative on hits.
  double queue_wait_ms = -1.0;
  RequestTimes t;
};

struct PhaseResult {
  std::vector<Sample> reads;
  std::vector<Sample> reloads;
  double elapsed_s = 0.0;    ///< phase start to last answer
  double client_cpu_s = 0.0; ///< CPU of the generator threads
};

/// Latency of a sample in ms: from the due time in an open loop, from the
/// send in a closed loop.
inline double LatencyMs(const Sample& s, bool open_loop) {
  return (open_loop ? LatencyFromDue(s.t) : s.t.done - s.t.sent) * 1e3;
}

/// Traced-run instrumentation for a phase; untraced phases pass nullptr.
struct Hooks {
  SpanStore* spans = nullptr;
  std::atomic<uint64_t>* next_request_id = nullptr;
};

/// Span ids derived from a request id: the generator's root span, the
/// client round trip, and the server-side handler span.
inline uint64_t LoadgenSpanId(uint64_t rid) { return 3 * rid + 1; }
inline uint64_t RequestSpanId(uint64_t rid) { return 3 * rid + 2; }
inline uint64_t HandleSpanId(uint64_t rid) { return 3 * rid + 3; }

/// Boundaries of the measurement windows a phase is split into: the
/// calling thread runs `at_boundary(k)` at t0 + k * window_s for
/// k = 0..windows (t0 is the phase start).
struct WindowClock {
  double window_s = 0.0;
  int windows = 0;
  std::function<void(int)> at_boundary;
};

/// Runs `plan` against 127.0.0.1:`port` with spec.read_connections
/// keep-alive connections plus one for reloads, one load thread each. With
/// a `clock` the calling thread keeps the window boundaries; otherwise it
/// is one of the load threads.
PhaseResult RunPhase(int port, const Plan& plan, const Hooks* hooks,
                     const WindowClock* clock = nullptr);

/// Requests every key of `keys` once over `connections` connections (cache
/// priming); answers are returned for the output check.
std::vector<Sample> RequestEachKey(int port, const std::vector<PathKey>& keys,
                                   int connections);

/// Serial RePaGer::Generate on the reference serving state.
class Reference {
 public:
  explicit Reference(const rpg::snapshot::ServingState* state)
      : state_(state) {}

  /// The pipeline options the server resolves for `key`.
  static rpg::core::RePagerOptions Options(const PathKey& key);

  /// Fingerprint of Generate(key) for each key (nullopt when Generate
  /// fails), over up to `threads` threads with one scratch each.
  std::vector<std::optional<uint64_t>> Fingerprints(
      const std::vector<PathKey>& keys, int threads) const;

 private:
  const rpg::snapshot::ServingState* state_;
};

/// Counts failed samples: non-200, unparseable, a reload that did not
/// flip, or (when `expected` has a value for the key) a fingerprint that
/// differs from the reference. Prints the first few mismatches to stderr.
size_t CountFailures(const std::vector<Sample>& samples,
                     const std::vector<std::optional<uint64_t>>* expected,
                     const std::vector<bool>* checked);

/// Set-up: builds the default workbench, keeps its SurveyBank keys, writes
/// its snapshot to `path`, and frees the workbench.
struct SnapshotBuild {
  std::vector<PathKey> base;
  double workbench_s = 0.0;
  uint64_t file_bytes = 0;
};
rpg::Result<SnapshotBuild> BuildSnapshot(const std::string& path);

/// A reported metric with the sample count behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// Prints the human-readable report (metrics with units and counts, the
/// machine block, `extra` JSON fields) and then, as the last line of
/// stdout, the result object.
void PrintResult(const MachineState& machine, const std::vector<Metric>& metrics,
                 const std::string& extra_json, bool correct,
                 uint64_t attempted, uint64_t failed);

}  // namespace perfbench

#endif  // PERFBENCH_PHASE_H_
