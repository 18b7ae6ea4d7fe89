// The repo benchmark's load generator (see perfbench/README.md).
//
//   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
//                     --serve-ui PATH --workdir DIR
//
// --trace 0 runs the workload over HTTP against a separate serve_ui process
// and prints the end-to-end metrics; --trace 1 replays the same requests
// in-process with spans around each layer's public calls and prints the
// per-layer metrics. Either way the last stdout line is the result object,
// and every answer is checked against a serial RePaGer::Generate.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "answers.h"
#include "common/rng.h"
#include "common/timer.h"
#include "phase.h"
#include "stats.h"
#include "ui/http_client.h"

namespace perfbench {

int RunTraced(const Args& args, const MachineState& machine);

namespace {

/// Set-up passes per end-to-end run; setup_s is their median.
constexpr int kSetupPasses = 3;
/// Reload round trips behind reload_p50_ms. The median needs 20 (10
/// beyond it); 30 make it steadier from run to run.
constexpr size_t kMinReloads = 30;
/// unique_misses keys whose answers are checked against the reference.
constexpr size_t kUniqueCheckSample = 200;
/// Connections that request every key once before the timed phase.
constexpr int kPrimeConnections = 4;
/// Untimed load before the timed phase.
constexpr double kWarmupSeconds = 1.0;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args->spec = FindWorkload(value);
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--serve-ui") {
      args->serve_ui = value;
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return args->spec != nullptr && args->seconds > 0 && !args->serve_ui.empty() &&
         !args->workdir.empty();
}

/// One set-up pass: workbench -> snapshot -> serve_ui booted from it ->
/// reference state loaded from the same file.
struct SetupPass {
  SnapshotBuild build;
  ServerProcess server;
  std::unique_ptr<rpg::snapshot::ServingState> reference;
};

/// The CPU the end-to-end run keeps the server and the load threads on:
/// the last. On a shared virtual machine, waking a thread on another CPU
/// waits until the host runs that virtual CPU; on one CPU every wakeup
/// between generator, reactor and engine threads is local. In runs
/// interleaved on the same host this cut the IQR/median of hot_hits
/// throughput_rps from 0.63 to 0.12, and of unique_misses latency_p95_ms
/// from 0.28 to 0.17.
CpuRange BenchCpu(int nproc) { return CpuRange{nproc - 1, 1}; }

rpg::Status RunSetupPass(const Args& args, const std::string& snapshot,
                         CpuRange server_cpus, SetupPass* pass) {
  RPG_ASSIGN_OR_RETURN(pass->build, BuildSnapshot(snapshot));
  RPG_RETURN_NOT_OK(
      pass->server.Start(args.serve_ui, snapshot, args.workdir + "/server.log",
                         server_cpus));
  RPG_ASSIGN_OR_RETURN(pass->reference,
                       rpg::snapshot::ServingState::Load(snapshot));
  return rpg::Status::OK();
}

int RunEndToEnd(const Args& args, const MachineState& machine) {
  const WorkloadSpec& spec = *args.spec;
  const std::string snapshot = args.workdir + "/workbench.snap";

  // ---- set-up, several times; the last pass stays up ------------------
  std::vector<double> pass_s;
  SetupPass pass;
  for (int p = 0; p < kSetupPasses; ++p) {
    pass.server.Stop();
    pass.reference.reset();
    rpg::Timer t;
    rpg::Status st =
        RunSetupPass(args, snapshot, BenchCpu(machine.nproc), &pass);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    pass_s.push_back(t.ElapsedSeconds());
  }
  const int port = pass.server.port();
  const pid_t server_pid = pass.server.pid();
  Reference reference(pass.reference.get());
  // The warm-up sends the start of the timed phase's own request stream
  // (unique_misses: its first keys, which the timed phase then skips).
  Plan warmup = MakePlan(spec, pass.build.base, args.seed, kWarmupSeconds,
                         snapshot);
  warmup.reload_due.clear();
  // unique_misses: the timed phase skips the warm-up's keys and starts at
  // a round of UniqueMissKeys, so its windows hold whole rounds.
  const size_t round = HotKeys(pass.build.base).size();
  Plan plan = MakePlan(spec, pass.build.base, args.seed, args.seconds,
                       snapshot,
                       spec.kind == WorkloadKind::kUniqueMisses
                           ? (warmup.keys.size() + round - 1) / round * round
                           : 0);
  warmup.client_cpus = plan.client_cpus = BenchCpu(machine.nproc);

  // Warm start for the workloads whose timed requests should hit, then the
  // workload itself, untimed, so the timed phase starts on a machine that
  // already carries the load (idle virtual CPUs are slow to wake for the
  // first second of a burst).
  rpg::Timer prime_timer;
  std::vector<Sample> primed;
  if (spec.kind != WorkloadKind::kUniqueMisses) {
    primed = RequestEachKey(port, plan.keys, kPrimeConnections);
  }
  std::vector<Sample> warm = RunPhase(port, warmup, nullptr).reads;
  const double prime_s = prime_timer.ElapsedSeconds();

  // ---- timed phase, in windows ------------------------------------------
  // With reloads, one window per reload interval (each holds one reload);
  // otherwise windows of spec.window_s. Rates, latencies and CPU are per window
  // and reported as the median window, so a burst of machine noise moves
  // a window rather than the result.
  const int windows =
      plan.reload_due.empty()
          ? std::max(1, static_cast<int>(args.seconds / spec.window_s))
          : static_cast<int>(plan.reload_due.size());
  std::vector<double> server_cpu_at(windows + 1);
  WindowClock clock{args.seconds / windows, windows, [&](int k) {
                      server_cpu_at[k] = ProcessCpuSeconds(server_pid);
                    }};
  PhaseResult phase = RunPhase(port, plan, nullptr, &clock);
  const long server_hwm_kib = ProcessPeakRssKib(server_pid);
  const long server_threads = ProcessThreads(server_pid);

  // Reload round trips: the timed phase's, topped up on the idle server.
  std::vector<Sample> reloads = phase.reloads;
  if (reloads.size() < kMinReloads) {
    PostConnection post;
    bool connected = post.Connect(port).ok();
    while (reloads.size() < kMinReloads) {
      Sample s;
      rpg::Timer t;
      auto r = connected ? post.Send("POST", "/api/admin/reload", snapshot)
                         : rpg::Result<rpg::ui::ClientResponse>(
                               rpg::Status::IoError("not connected"));
      s.t.done = t.ElapsedSeconds();
      if (r.ok()) {
        s.status = r->status;
        s.reload_ok = r->status == 200 &&
                      r->body.find("\"reloaded\":true") != std::string::npos;
      }
      reloads.push_back(s);
    }
  }

  std::string stats_json;
  {
    rpg::ui::HttpClient client;
    if (client.Connect(port).ok()) {
      auto r = client.Fetch("GET", "/api/stats");
      if (r.ok()) stats_json = r->body;
    }
  }
  pass.server.Stop();

  // ---- output check ------------------------------------------------------
  std::vector<bool> checked(plan.keys.size(), true);
  if (spec.kind == WorkloadKind::kUniqueMisses) {
    std::fill(checked.begin(), checked.end(), false);
    rpg::Rng rng(StreamSeed(args.seed, 4));
    for (uint64_t k : rng.SampleWithoutReplacement(plan.keys.size(),
                                                   kUniqueCheckSample)) {
      checked[k] = true;
    }
  }
  std::vector<PathKey> to_check;
  std::vector<size_t> slot(plan.keys.size(), 0);
  for (size_t k = 0; k < plan.keys.size(); ++k) {
    if (checked[k]) {
      slot[k] = to_check.size();
      to_check.push_back(plan.keys[k]);
    }
  }
  std::vector<std::optional<uint64_t>> found =
      reference.Fingerprints(to_check, machine.nproc);
  std::vector<std::optional<uint64_t>> expected(plan.keys.size());
  for (size_t k = 0; k < plan.keys.size(); ++k) {
    if (checked[k]) expected[k] = found[slot[k]];
  }
  // A read is correct when its answer passed the check; failures are
  // counted per request against the requests attempted.
  size_t failed_reads = 0;
  std::vector<bool> read_ok(phase.reads.size());
  for (size_t i = 0; i < phase.reads.size(); ++i) {
    std::vector<Sample> one = {phase.reads[i]};
    read_ok[i] = CountFailures(one, &expected, &checked) == 0;
    failed_reads += read_ok[i] ? 0 : 1;
  }
  const size_t failed_primes = CountFailures(primed, &expected, &checked) +
                               CountFailures(warm, nullptr, nullptr);
  size_t failed_reloads = 0;
  for (const Sample& s : reloads) failed_reloads += s.reload_ok ? 0 : 1;
  const uint64_t attempted =
      phase.reads.size() + primed.size() + warm.size() + reloads.size();
  const uint64_t failed = failed_reads + failed_primes + failed_reloads;

  // ---- metrics -----------------------------------------------------------
  // A request belongs to the window it was due in.
  struct Window {
    std::vector<double> latency_ms;
    size_t requests = 0, within_slo = 0;
    // Span of the correct answers: first due time to last answer.
    double first_due = 1e300, last_done = 0.0;
  };
  std::vector<Window> per_window(windows);
  auto window_at = [&](double t) {
    return std::clamp(static_cast<int>(t / clock.window_s), 0, windows - 1);
  };
  std::vector<double> latency_ms, lateness_ms;
  size_t within_slo = 0, correct_reads = 0, hits = 0;
  for (size_t i = 0; i < phase.reads.size(); ++i) {
    const Sample& s = phase.reads[i];
    Window& w = per_window[window_at(s.t.due)];
    ++w.requests;
    lateness_ms.push_back(Lateness(s.t) * 1e3);
    if (!read_ok[i]) continue;
    ++correct_reads;
    hits += s.cache_hit ? 1 : 0;
    double ms = LatencyMs(s, spec.open_loop);
    latency_ms.push_back(ms);
    w.latency_ms.push_back(ms);
    w.first_due = std::min(w.first_due, s.t.due);
    w.last_done = std::max(w.last_done, s.t.done);
    within_slo += ms <= spec.slo_ms ? 1 : 0;
    w.within_slo += ms <= spec.slo_ms ? 1 : 0;
  }
  for (const Sample& s : phase.reloads) ++per_window[window_at(s.t.due)].requests;

  // Per-window values, reported as the median window. The p95 is the
  // highest percentile every window of every workload supports; the whole
  // phase's p99 goes into the report with its count.
  std::vector<double> w_rps, w_p50, w_p95, w_slo, w_cpu;
  for (int k = 0; k < windows; ++k) {
    Window& w = per_window[k];
    w_rps.push_back(w.latency_ms.empty()
                        ? 0.0
                        : static_cast<double>(w.latency_ms.size()) /
                              (w.last_done - w.first_due));
    w_slo.push_back(static_cast<double>(w.within_slo) /
                    static_cast<double>(std::max<size_t>(w.requests, 1)));
    w_cpu.push_back((server_cpu_at[k + 1] - server_cpu_at[k]) * 1e3 /
                    static_cast<double>(std::max<size_t>(w.requests, 1)));
    auto p50 = MedianOf(&w.latency_ms);
    if (p50) w_p50.push_back(p50->value);
    auto p95 = PercentileOf(&w.latency_ms, 0.95);
    if (p95) w_p95.push_back(p95->value);
  }
  auto p99_all = PercentileOf(&latency_ms, 0.99);
  std::vector<double> reload_ms;
  for (const Sample& s : reloads) {
    if (s.reload_ok) reload_ms.push_back((s.t.done - s.t.sent) * 1e3);
  }
  auto reload_p50 = MedianOf(&reload_ms);
  auto late_p99 = PercentileOf(&lateness_ms, 0.99);
  const double setup_s = PlainMedian(pass_s) + prime_s;
  const bool enough = w_p50.size() == per_window.size() &&
                      w_p95.size() == per_window.size() &&
                      reload_p50.has_value();

  std::vector<Metric> metrics = {
      {"setup_s", setup_s, "s", pass_s.size()},
      {"throughput_rps", PlainMedian(w_rps), "1/s", correct_reads},
      {"latency_p50_ms", PlainMedian(w_p50), "ms", latency_ms.size()},
      {"latency_p95_ms", PlainMedian(w_p95), "ms", latency_ms.size()},
      {"slo_met_frac", PlainMedian(w_slo), "ratio", phase.reads.size()},
      {"server_cpu_ms_per_req", PlainMedian(w_cpu), "ms",
       phase.reads.size() + phase.reloads.size()},
      {"server_rss_mib", static_cast<double>(server_hwm_kib) / 1024.0, "MiB",
       1},
      {"reload_p50_ms", reload_p50 ? reload_p50->value : 0.0, "ms",
       reload_ms.size()},
  };

  char extra[1024];
  std::snprintf(
      extra, sizeof(extra),
      "\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"setup_passes_s\":[%.4f,%.4f,%.4f],\"prime_s\":%.4f,"
      "\"server\":{\"threads\":%ld,\"engine_threads\":%.0f,"
      "\"hit_ratio\":%.4f,\"stale_evictions\":%.0f,\"epoch_flips\":%.0f},"
      "\"client\":{\"cpu_s\":%.4f,\"late_p99_ms\":%.4f,\"connections\":%d},"
      "\"timed_hits\":%zu,\"correct_reads\":%zu,\"slo_ms\":%g,"
      "\"windows\":%d,\"latency_p99_ms\":%.4f,\"latency_samples\":%zu",
      spec.name, static_cast<unsigned long long>(args.seed), args.seconds,
      pass_s[0], pass_s[1], pass_s[2], prime_s, server_threads,
      JsonNumber(stats_json, "batcher", "threads").value_or(0),
      [&] {
        double h = JsonNumber(stats_json, "cache", "hits").value_or(0);
        double m = JsonNumber(stats_json, "cache", "misses").value_or(0);
        return h + m > 0 ? h / (h + m) : 0.0;
      }(),
      JsonNumber(stats_json, "cache", "stale_evictions").value_or(0),
      JsonNumber(stats_json, "epoch", "flips").value_or(0), phase.client_cpu_s,
      late_p99 ? late_p99->value : 0.0,
      spec.read_connections + (plan.reload_due.empty() ? 0 : 1), hits,
      correct_reads, spec.slo_ms, windows, p99_all ? p99_all->value : -1.0,
      latency_ms.size());

  std::remove(snapshot.c_str());
  if (!enough) {
    std::fprintf(stderr,
                 "too few samples for the percentile rule: %zu latencies "
                 "(each window needs 200 for its p95), %zu reloads "
                 "(median needs 20)\n",
                 latency_ms.size(), reload_ms.size());
    return 3;
  }
  // The per-window values behind the medians, in time order.
  auto list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (size_t i = 0; i < values.size(); ++i) {
      char v[32];
      std::snprintf(v, sizeof(v), "%s%.4g", i ? "," : "", values[i]);
      out += v;
    }
    return out + "]";
  };
  const std::string report = std::string(extra) + ",\"window_rps\":" +
                             list(w_rps) + ",\"window_p50_ms\":" +
                             list(w_p50) + ",\"window_p95_ms\":" +
                             list(w_p95);
  PrintResult(machine, metrics, report, failed == 0, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload NAME --seed N "
                 "--seconds S --trace 0|1 --serve-ui PATH --workdir DIR\n");
    return 2;
  }
  perfbench::MachineState machine = perfbench::ProbeMachine();
  return args.trace ? perfbench::RunTraced(args, machine)
                    : perfbench::RunEndToEnd(args, machine);
}
