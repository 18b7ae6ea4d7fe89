#include "phase.h"

#include <sys/stat.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>

#include "answers.h"
#include "common/rng.h"
#include "common/timer.h"
#include "eval/workbench.h"
#include "snapshot/snapshot_writer.h"
#include "ui/http_client.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double>(t - t0).count();
}

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

Clock::time_point At(Clock::time_point t0, double seconds) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
}

/// Waits until `when`: sleeps until shortly before it, then spins, so a
/// request goes out on time even when waking a sleeping thread is slow.
void WaitUntil(Clock::time_point when) {
  std::this_thread::sleep_until(when - std::chrono::microseconds(300));
  while (Clock::now() < when) {
  }
}

/// Fills the answer-derived fields of `s` from a fetch result.
void Classify(const rpg::Result<rpg::ui::ClientResponse>& r, Sample* s) {
  if (!r.ok()) return;
  s->status = r->status;
  s->bytes = static_cast<uint32_t>(r->body.size());
  if (r->status != 200) return;
  s->fingerprint = AnswerFingerprint(r->body);
  s->cache_hit = AnswerIsCacheHit(r->body);
  if (!s->cache_hit) {
    auto serve = JsonNumber(r->body, "", "serve_seconds");
    auto compute = JsonNumber(r->body, "", "seconds");
    if (serve && compute) s->queue_wait_ms = (*serve - *compute) * 1e3;
  }
}

/// One /api/path exchange, due at `due` seconds after `t0`.
Sample Read(rpg::ui::HttpClient* client, const Plan& plan, uint32_t key,
            Clock::time_point t0, double due, const Hooks* hooks) {
  Sample s;
  s.key = key;
  uint64_t rid = hooks != nullptr ? hooks->next_request_id->fetch_add(1) + 1
                                  : 0;
  const std::string target = PathTarget(plan.keys[key], rid);
  const Clock::time_point sent = Clock::now();
  auto r = client->Fetch("GET", target);
  const Clock::time_point done = Clock::now();
  Classify(r, &s);
  s.t = {due, SecondsSince(t0, sent), SecondsSince(t0, done)};
  if (hooks != nullptr) {
    const Clock::time_point due_tp = std::min(At(t0, due), sent);
    hooks->spans->Add({"loadgen.request", LoadgenSpanId(rid), 0, rid,
                       ToNs(due_tp), ToNs(done)});
    hooks->spans->Add({"ui.request", RequestSpanId(rid), LoadgenSpanId(rid),
                       rid, ToNs(sent), ToNs(done)});
  }
  return s;
}

/// Pause after each connection's first round trip, long enough for the
/// server's poller to be back waiting before the next connection arrives.
constexpr auto kConnectPause = std::chrono::milliseconds(20);

/// Opens `n` keep-alive connections one after another, each finishing a
/// round trip and a pause before the next connects. The reactor's pollers
/// share the listening socket, and the kernel hands a new connection to
/// the first poller waiting for one; connecting in turn makes that the
/// same poller in every run instead of the outcome of a race between
/// concurrent connects.
std::vector<std::unique_ptr<rpg::ui::HttpClient>> ConnectInTurn(int port,
                                                                 int n) {
  std::vector<std::unique_ptr<rpg::ui::HttpClient>> clients;
  std::this_thread::sleep_for(kConnectPause);  // let earlier closes settle
  for (int i = 0; i < n; ++i) {
    auto client = std::make_unique<rpg::ui::HttpClient>();
    // A failure here resurfaces as failed requests: Fetch reconnects.
    if (client->Connect(port).ok()) (void)client->Fetch("GET", "/api/stats");
    std::this_thread::sleep_for(kConnectPause);
    clients.push_back(std::move(client));
  }
  return clients;
}

/// Runs `fn(0..threads-1)` on `threads` new threads and returns their
/// summed thread CPU seconds. The calling thread runs `coordinator`, if
/// any, and waits for them.
template <typename Fn>
double RunOnThreads(int threads, Fn fn,
                    const std::function<void()>& coordinator = nullptr) {
  std::mutex mu;
  double cpu_s = 0.0;
  auto body = [&](int index) {
    const int64_t cpu0 = ThreadCpuNs();
    fn(index);
    const double used = static_cast<double>(ThreadCpuNs() - cpu0) * 1e-9;
    std::lock_guard<std::mutex> lock(mu);
    cpu_s += used;
  };
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) pool.emplace_back(body, i);
  if (coordinator) coordinator();
  for (auto& t : pool) t.join();
  return cpu_s;
}

}  // namespace

Plan MakePlan(const WorkloadSpec& spec, const std::vector<PathKey>& base,
              uint64_t seed, double seconds, const std::string& snapshot,
              size_t first_unique) {
  Plan plan;
  plan.spec = &spec;
  plan.seed = seed;
  plan.seconds = seconds;
  plan.reload_body = snapshot;
  if (spec.open_loop) plan.due = EvenSchedule(spec.rate_rps, seconds);
  switch (spec.kind) {
    case WorkloadKind::kHotHits:
      plan.keys = HotKeys(base);
      break;
    case WorkloadKind::kUniqueMisses: {
      std::vector<PathKey> keys =
          UniqueMissKeys(base, first_unique + plan.due.size(), seed);
      plan.keys.assign(keys.begin() + static_cast<long>(
                                          std::min(first_unique, keys.size())),
                       keys.end());
      for (uint32_t i = 0; i < plan.due.size(); ++i) plan.key_of.push_back(i);
      plan.due.resize(plan.keys.size());
      plan.key_of.resize(plan.keys.size());
      break;
    }
    case WorkloadKind::kReloadChurn:
      plan.keys = HotKeys(base);
      plan.key_of = ZipfSequence(plan.keys.size(), plan.due.size(), seed);
      for (double t = spec.reload_interval_s / 2; t < seconds;
           t += spec.reload_interval_s) {
        plan.reload_due.push_back(t);
      }
      break;
  }
  return plan;
}

PhaseResult RunPhase(int port, const Plan& plan, const Hooks* hooks,
                     const WindowClock* clock) {
  const WorkloadSpec& spec = *plan.spec;
  PhaseResult out;
  std::vector<std::vector<Sample>> closed(spec.read_connections);
  out.reads.resize(plan.due.size());
  out.reloads.resize(plan.reload_due.size());
  std::atomic<size_t> next{0};
  const int readers = spec.read_connections;
  const int threads = readers + (plan.reload_due.empty() ? 0 : 1);
  std::vector<std::unique_ptr<rpg::ui::HttpClient>> clients =
      ConnectInTurn(port, readers);
  PostConnection post;
  bool connected =
      plan.reload_due.empty() ||
      (post.Connect(port).ok() && post.Send("GET", "/api/stats").ok());
  if (!plan.reload_due.empty()) std::this_thread::sleep_for(kConnectPause);
  // Start slightly in the future so every thread is up before the first
  // request is due.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);

  out.client_cpu_s = RunOnThreads(threads, [&](int index) {
    PinCurrentThread(plan.client_cpus);
    if (index == readers) {  // the reload connection
      for (size_t k = 0; k < plan.reload_due.size(); ++k) {
        WaitUntil(At(t0, plan.reload_due[k]));
        Sample& s = out.reloads[k];
        const uint64_t rid =
            hooks != nullptr ? hooks->next_request_id->fetch_add(1) + 1 : 0;
        const Clock::time_point sent = Clock::now();
        auto r = connected ? post.Send("POST", "/api/admin/reload", plan.reload_body)
                           : rpg::Result<rpg::ui::ClientResponse>(
                                 rpg::Status::IoError("not connected"));
        const Clock::time_point done = Clock::now();
        if (r.ok()) {
          s.status = r->status;
          s.reload_ok = r->status == 200 &&
                        r->body.find("\"reloaded\":true") != std::string::npos;
        }
        s.t = {plan.reload_due[k], SecondsSince(t0, sent),
               SecondsSince(t0, done)};
        if (hooks != nullptr) {
          hooks->spans->Add({"loadgen.reload", LoadgenSpanId(rid), 0, rid,
                             ToNs(std::min(At(t0, plan.reload_due[k]), sent)),
                             ToNs(done)});
          hooks->spans->Add({"ui.request", RequestSpanId(rid),
                             LoadgenSpanId(rid), rid, ToNs(sent), ToNs(done)});
        }
      }
      return;
    }
    rpg::ui::HttpClient& client = *clients[index];
    std::this_thread::sleep_until(t0);
    if (spec.open_loop) {
      for (size_t i = next.fetch_add(1); i < plan.due.size();
           i = next.fetch_add(1)) {
        WaitUntil(At(t0, plan.due[i]));
        out.reads[i] = Read(&client, plan, plan.key_of[i], t0, plan.due[i],
                            hooks);
      }
      return;
    }
    // Closed loop: the next request is due when the previous one is
    // answered.
    rpg::Rng rng(StreamSeed(plan.seed, 100 + static_cast<uint64_t>(index)));
    std::vector<Sample>& mine = closed[index];
    mine.reserve(1 << 16);
    double due = 0.0;
    while (SecondsSince(t0, Clock::now()) < plan.seconds) {
      uint32_t key =
          static_cast<uint32_t>(rng.Zipf(plan.keys.size(), kZipfS) - 1);
      mine.push_back(Read(&client, plan, key, t0, due, hooks));
      due = mine.back().t.done;
    }
  }, clock == nullptr ? std::function<void()>() : [&] {
    for (int k = 0; k <= clock->windows; ++k) {
      std::this_thread::sleep_until(At(t0, k * clock->window_s));
      clock->at_boundary(k);
    }
  });

  for (auto& part : closed) {
    out.reads.insert(out.reads.end(), part.begin(), part.end());
  }
  for (const Sample& s : out.reads) out.elapsed_s = std::max(out.elapsed_s, s.t.done);
  for (const Sample& s : out.reloads) {
    out.elapsed_s = std::max(out.elapsed_s, s.t.done);
  }
  return out;
}

std::vector<Sample> RequestEachKey(int port, const std::vector<PathKey>& keys,
                                   int connections) {
  Plan plan;
  plan.keys = keys;
  std::vector<Sample> out(keys.size());
  std::atomic<size_t> next{0};
  std::vector<std::unique_ptr<rpg::ui::HttpClient>> clients =
      ConnectInTurn(port, connections);
  const Clock::time_point t0 = Clock::now();
  RunOnThreads(connections, [&](int index) {
    for (size_t i = next.fetch_add(1); i < keys.size(); i = next.fetch_add(1)) {
      out[i] = Read(clients[index].get(), plan, static_cast<uint32_t>(i), t0,
                    SecondsSince(t0, Clock::now()), nullptr);
    }
  });
  return out;
}

rpg::core::RePagerOptions Reference::Options(const PathKey& key) {
  rpg::core::RePagerOptions options;
  if (key.seeds > 0) options.num_initial_seeds = key.seeds;
  if (key.year > 0) options.year_cutoff = key.year;
  return options;
}

std::vector<std::optional<uint64_t>> Reference::Fingerprints(
    const std::vector<PathKey>& keys, int threads) const {
  std::vector<std::optional<uint64_t>> out(keys.size());
  std::atomic<size_t> next{0};
  RunOnThreads(threads, [&](int) {
    rpg::core::QueryScratch scratch;
    for (size_t i = next.fetch_add(1); i < keys.size(); i = next.fetch_add(1)) {
      auto r = state_->repager().Generate(keys[i].query, Options(keys[i]),
                                          &scratch);
      if (r.ok()) out[i] = PathFingerprint(r->path, state_->years());
    }
  });
  return out;
}

size_t CountFailures(const std::vector<Sample>& samples,
                     const std::vector<std::optional<uint64_t>>* expected,
                     const std::vector<bool>* checked) {
  size_t failed = 0;
  for (const Sample& s : samples) {
    bool ok = s.status == 200 && s.fingerprint.has_value();
    if (ok && expected != nullptr && (checked == nullptr || (*checked)[s.key])) {
      const auto& want = (*expected)[s.key];
      ok = want.has_value() && *want == *s.fingerprint;
    }
    if (!ok) {
      if (failed < 5) {
        std::fprintf(stderr, "check: key %u answered status %d, %s\n", s.key,
                     s.status,
                     s.fingerprint ? "reading path differs from reference"
                                   : "no reading path");
      }
      ++failed;
    }
  }
  return failed;
}

rpg::Result<SnapshotBuild> BuildSnapshot(const std::string& path) {
  SnapshotBuild out;
  rpg::eval::WorkbenchOptions options;
  rpg::Timer build;
  RPG_ASSIGN_OR_RETURN(std::unique_ptr<rpg::eval::Workbench> wb,
                       rpg::eval::Workbench::Create(options));
  out.workbench_s = build.ElapsedSeconds();
  for (size_t i = 0; i < wb->bank().size(); ++i) {
    const auto& entry = wb->bank().Get(i);
    out.base.push_back({entry.query, 0, entry.year});
  }
  rpg::snapshot::SnapshotInput input;
  input.graph = &wb->corpus().citations;
  input.titles = &wb->titles();
  input.years = &wb->years();
  input.pagerank = &wb->pagerank();
  input.venue_scores = &wb->venue_scores();
  input.engine = &wb->google();
  input.matcher = &wb->matcher();
  input.params = options.params;
  input.corpus_seed = options.corpus.seed;
  RPG_RETURN_NOT_OK(rpg::snapshot::WriteSnapshot(input, path));
  struct stat st {};
  if (::stat(path.c_str(), &st) == 0) {
    out.file_bytes = static_cast<uint64_t>(st.st_size);
  }
  return out;
}

void PrintResult(const MachineState& machine,
                 const std::vector<Metric>& metrics,
                 const std::string& extra_json, bool correct,
                 uint64_t attempted, uint64_t failed) {
  for (const Metric& m : metrics) {
    std::printf("metric %-32s %16.6f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf(
      "report {\"machine\":{\"nproc\":%d,\"build_type\":\"%s\","
      "\"tracing_compiled_in\":%s,\"on_cpu_1\":%.4f,\"on_cpu_n\":%.4f,"
      "\"flagged\":%s},\"error_rate\":%.6g%s%s}\n",
      machine.nproc, machine.build_type.c_str(),
      machine.tracing_compiled_in ? "true" : "false", machine.on_cpu_1,
      machine.on_cpu_n, machine.flagged ? "true" : "false",
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
      extra_json.empty() ? "" : ",", extra_json.c_str());
  if (machine.flagged) {
    std::printf("FLAGGED: on-CPU probe below 50%% (1 thread %.0f%%, %d threads "
                "%.0f%%); the machine was starved during this run\n",
                machine.on_cpu_1 * 100, machine.nproc, machine.on_cpu_n * 100);
  }
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
