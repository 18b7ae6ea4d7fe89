// Epoch-churn bench (docs/serving.md, "Epoch lifecycle"): closed-loop
// serving load while the engine's epoch is flipped back and forth
// between two snapshots of the same corpus (original vs BFS-relabeled
// ids — every query resolves in both). Two phases on identical traffic:
//
//   baseline  no flips — steady-state latency + cache hit rate
//   churn     a flipper thread SwapEpochs every RPG_CHURN_FLIP_MS —
//             latency + hit rate under continuous invalidation churn
//
// Headline numbers in BENCH_churn.json:
//   flip_p99_ms          request p99 during churn (how much tail a flip
//                        storm costs vs baseline_p99_ms)
//   stale_eviction_rate  stale cache stamps lazily evicted per request
//                        during churn — proof the flip needs no global
//                        clear (rate > 0) and that eviction stays
//                        bounded by the request stream (rate <= ~1)
//
// Invariant (nonzero exit on violation): every request in both phases
// must succeed — an epoch flip is invisible to in-flight traffic.
//
// Scale knobs (env):
//   RPG_CHURN_CLIENTS   closed-loop client threads   (default 4)
//   RPG_CHURN_REQUESTS  requests per client          (default 60)
//   RPG_CHURN_QUERIES   distinct queries in the mix  (default 12)
//   RPG_CHURN_FLIP_MS   ms between epoch flips       (default 20)
//   RPG_CHURN_ZIPF_S    Zipf exponent                (default 1.1)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/json_writer.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "eval/evaluator.h"
#include "serve/epoch.h"
#include "serve/serve_engine.h"
#include "snapshot/snapshot_writer.h"

namespace {

using namespace rpg;

size_t EnvSize(const char* name, size_t fallback) {
  if (const char* v = std::getenv(name)) {
    return static_cast<size_t>(std::strtoull(v, nullptr, 10));
  }
  return fallback;
}

double EnvDouble(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) return std::strtod(v, nullptr);
  return fallback;
}

struct Percentiles {
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;
  size_t count = 0;
};

Percentiles ComputePercentiles(std::vector<double> samples_ms) {
  Percentiles p;
  p.count = samples_ms.size();
  if (samples_ms.empty()) return p;
  std::sort(samples_ms.begin(), samples_ms.end());
  auto at = [&](double q) {
    size_t i = static_cast<size_t>(q * static_cast<double>(samples_ms.size()));
    return samples_ms[std::min(i, samples_ms.size() - 1)];
  };
  p.p50 = at(0.50);
  p.p90 = at(0.90);
  p.p99 = at(0.99);
  p.max = samples_ms.back();
  return p;
}

void WritePercentiles(JsonWriter& w, const Percentiles& p) {
  w.BeginObject();
  w.Key("count").UInt(p.count);
  w.Key("p50_ms").Double(p.p50);
  w.Key("p90_ms").Double(p.p90);
  w.Key("p99_ms").Double(p.p99);
  w.Key("max_ms").Double(p.max);
  w.EndObject();
}

/// One phase's aggregated outcome.
struct PhaseResult {
  double wall_seconds = 0.0;
  double throughput = 0.0;
  size_t requests = 0;
  size_t errors = 0;
  size_t cache_hits = 0;
  Percentiles latency;
  uint64_t flips = 0;
  uint64_t stale_evictions = 0;
  double hit_rate = 0.0;
  double stale_eviction_rate = 0.0;
};

}  // namespace

int main() {
  bench::BenchConfig config = bench::LoadBenchConfig();
  auto wb = bench::BuildWorkbenchOrDie(config);

  const size_t num_clients = EnvSize("RPG_CHURN_CLIENTS", 4);
  const size_t requests_per_client = EnvSize("RPG_CHURN_REQUESTS", 60);
  const size_t num_queries = EnvSize("RPG_CHURN_QUERIES", 12);
  const size_t flip_ms = EnvSize("RPG_CHURN_FLIP_MS", 20);
  const double zipf_s = EnvDouble("RPG_CHURN_ZIPF_S", 1.1);

  // Two snapshots of the same corpus: epoch A as written, epoch B with
  // BFS-relabeled paper ids. Every query hits in both; the flip between
  // them is the churn under test.
  snapshot::SnapshotInput input;
  input.graph = &wb->corpus().citations;
  input.titles = &wb->titles();
  input.years = &wb->years();
  input.pagerank = &wb->pagerank();
  input.venue_scores = &wb->venue_scores();
  input.engine = &wb->google();
  input.matcher = &wb->matcher();
  input.corpus_seed = config.corpus_seed;
  const auto temp = std::filesystem::temp_directory_path();
  const std::string path_a = (temp / "rpg_bench_churn_a.snap").string();
  const std::string path_b = (temp / "rpg_bench_churn_b.snap").string();
  {
    snapshot::SnapshotWriterOptions writer_options;
    writer_options.relabel = false;
    Status status = snapshot::WriteSnapshot(input, path_a, writer_options);
    if (status.ok()) {
      writer_options.relabel = true;
      status = snapshot::WriteSnapshot(input, path_b, writer_options);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "snapshot write: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  auto epoch_a_or = serve::LoadEpochFromSnapshot(path_a, 1);
  auto epoch_b_or = serve::LoadEpochFromSnapshot(path_b, 2);
  if (!epoch_a_or.ok() || !epoch_b_or.ok()) {
    std::fprintf(stderr, "epoch load failed\n");
    return 1;
  }
  serve::EpochHandle epoch_a = epoch_a_or.value();
  serve::EpochHandle epoch_b = epoch_b_or.value();

  // Zipf-ranked query mix, same shape as bench_serve_load.
  std::vector<size_t> sample = eval::Evaluator::SampleEntries(
      wb->bank(), std::max(num_queries, size_t{1}), config.sample_seed);
  std::vector<std::string> queries;
  for (size_t idx : sample) queries.push_back(wb->bank().Get(idx).query);
  if (queries.size() < 2) {
    std::fprintf(stderr, "not enough SurveyBank queries\n");
    return 1;
  }

  std::printf("epoch churn: %zu clients x %zu requests, %zu queries, "
              "Zipf(s=%.2f), flip every %zums (%llu papers / %llu edges "
              "per epoch)\n",
              num_clients, requests_per_client, queries.size(), zipf_s,
              flip_ms,
              static_cast<unsigned long long>(epoch_a->info().num_papers),
              static_cast<unsigned long long>(epoch_a->info().num_edges));

  // Closed loop straight against the engine (no HTTP): each client fires
  // its next request as soon as the previous completes. `flip_every_ms`
  // == 0 is the no-flip baseline.
  auto run_phase = [&](size_t flip_every_ms) -> PhaseResult {
    serve::ServeEngineOptions serve_options;
    serve::ServeEngine engine(epoch_a, serve_options);
    std::atomic<bool> stop_flipping{false};
    std::thread flipper;
    if (flip_every_ms > 0) {
      flipper = std::thread([&] {
        bool to_b = true;
        while (!stop_flipping.load(std::memory_order_relaxed)) {
          engine.SwapEpoch(to_b ? epoch_b : epoch_a);
          to_b = !to_b;
          std::this_thread::sleep_for(
              std::chrono::milliseconds(flip_every_ms));
        }
      });
    }

    std::vector<std::vector<double>> latencies(num_clients);
    std::vector<size_t> errors(num_clients, 0);
    std::vector<size_t> hits(num_clients, 0);
    Timer wall;
    std::vector<std::thread> clients;
    for (size_t c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(0xc42fULL + c);
        for (size_t i = 0; i < requests_per_client; ++i) {
          size_t rank = rng.Zipf(queries.size(), zipf_s);  // 1-based
          Timer t;
          // The callback owns the promise: it may still be inside
          // set_value when this thread wakes up.
          auto served =
              std::make_shared<std::promise<Result<serve::ServeResponse>>>();
          auto served_future = served->get_future();
          engine.GenerateAsync(queries[rank - 1], 0, 0,
                               [served](Result<serve::ServeResponse> r) {
                                 served->set_value(std::move(r));
                               });
          Result<serve::ServeResponse> r = served_future.get();
          latencies[c].push_back(t.ElapsedMillis());
          if (!r.ok()) {
            ++errors[c];
            continue;
          }
          if (r->cache_hit) ++hits[c];
        }
      });
    }
    for (auto& t : clients) t.join();
    PhaseResult phase;
    phase.wall_seconds = wall.ElapsedSeconds();
    if (flipper.joinable()) {
      stop_flipping.store(true, std::memory_order_relaxed);
      flipper.join();
    }

    std::vector<double> all_ms;
    for (size_t c = 0; c < num_clients; ++c) {
      all_ms.insert(all_ms.end(), latencies[c].begin(), latencies[c].end());
      phase.errors += errors[c];
      phase.cache_hits += hits[c];
    }
    phase.requests = all_ms.size();
    phase.latency = ComputePercentiles(std::move(all_ms));
    phase.throughput =
        phase.wall_seconds > 0
            ? static_cast<double>(phase.requests) / phase.wall_seconds
            : 0.0;
    phase.flips = engine.epoch_flips();
    phase.stale_evictions = engine.cache().Stats().stale_evictions;
    phase.hit_rate = phase.requests > 0
                         ? static_cast<double>(phase.cache_hits) /
                               static_cast<double>(phase.requests)
                         : 0.0;
    phase.stale_eviction_rate =
        phase.requests > 0 ? static_cast<double>(phase.stale_evictions) /
                                 static_cast<double>(phase.requests)
                           : 0.0;
    return phase;
  };

  PhaseResult baseline = run_phase(0);
  PhaseResult churn = run_phase(flip_ms);

  TablePrinter table({"phase", "req/s", "p50 ms", "p99 ms", "hit rate",
                      "flips", "stale evict", "errors"});
  auto add_row = [&](const char* name, const PhaseResult& p) {
    table.AddRow({name, FormatDouble(p.throughput, 1),
                  FormatDouble(p.latency.p50, 3),
                  FormatDouble(p.latency.p99, 3),
                  FormatDouble(p.hit_rate, 3), std::to_string(p.flips),
                  std::to_string(p.stale_evictions),
                  std::to_string(p.errors)});
  };
  add_row("baseline", baseline);
  add_row("churn", churn);
  table.Print(std::cout);
  std::printf("flip p99 %.3fms (baseline %.3fms), stale eviction rate "
              "%.3f/req across %llu flips, 0 global clears\n",
              churn.latency.p99, baseline.latency.p99,
              churn.stale_eviction_rate,
              static_cast<unsigned long long>(churn.flips));

  JsonWriter json;
  json.BeginObject();
  json.Key("config").BeginObject();
  json.Key("clients").UInt(num_clients);
  json.Key("requests_per_client").UInt(requests_per_client);
  json.Key("distinct_queries").UInt(queries.size());
  json.Key("flip_ms").UInt(flip_ms);
  json.Key("zipf_s").Double(zipf_s);
  json.Key("num_papers").UInt(epoch_a->info().num_papers);
  json.Key("num_edges").UInt(epoch_a->info().num_edges);
  json.EndObject();
  json.Key("flip_p99_ms").Double(churn.latency.p99);
  json.Key("stale_eviction_rate").Double(churn.stale_eviction_rate);
  json.Key("errors").UInt(baseline.errors + churn.errors);
  auto write_phase = [&](const char* name, const PhaseResult& p) {
    json.Key(name).BeginObject();
    json.Key("wall_seconds").Double(p.wall_seconds);
    json.Key("throughput_rps").Double(p.throughput);
    json.Key("requests").UInt(p.requests);
    json.Key("errors").UInt(p.errors);
    json.Key("cache_hit_rate").Double(p.hit_rate);
    json.Key("epoch_flips").UInt(p.flips);
    json.Key("stale_evictions").UInt(p.stale_evictions);
    json.Key("stale_eviction_rate").Double(p.stale_eviction_rate);
    json.Key("latency");
    WritePercentiles(json, p.latency);
    json.EndObject();
  };
  write_phase("baseline", baseline);
  write_phase("churn", churn);
  json.EndObject();

  std::ofstream out("BENCH_churn.json");
  out << json.str() << "\n";
  out.close();
  std::printf("wrote BENCH_churn.json\n");

  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);

  // The zero-error invariant: a flip must be invisible to live traffic.
  // The churn phase must also actually have flipped and lazily evicted.
  if (baseline.errors > 0 || churn.errors > 0) {
    std::fprintf(stderr, "FAIL: request errors under churn\n");
    return 1;
  }
  if (churn.flips == 0 || churn.stale_evictions == 0) {
    std::fprintf(stderr, "FAIL: churn phase did not exercise flips\n");
    return 1;
  }
  wb.reset();
  return 0;
}
