// The traced run: replays a workload's generated requests in-process, with
// spans around each layer's public calls, and reports per-layer metrics.
// Never the run that produces the end-to-end numbers.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>

#include "answers.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/reading_path.h"
#include "core/repager.h"
#include "core/seed_reallocator.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "phase.h"
#include "serve/epoch.h"
#include "serve/query_cache.h"
#include "serve/serve_engine.h"
#include "stats.h"
#include "steiner/newst.h"
#include "ui/http_server.h"
#include "ui/repager_service.h"

namespace perfbench {

int RunTraced(const Args& args, const MachineState& machine);

namespace {

/// LoadEpochFromSnapshot calls behind snapshot.load_epoch_ms; the first
/// three epochs stay loaded (one serves, two feed the SwapEpoch probe).
constexpr int kEpochLoads = 5;
/// Replay passes alternate untraced and traced, so the spans' cost shows
/// as the difference between the two halves.
constexpr int kReplayPasses = 4;
/// The replay covers at most this much of the workload's schedule.
constexpr double kMaxReplaySeconds = 10.0;
constexpr double kHitProbeSeconds = 1.5;
constexpr size_t kDirectCalls = 2000;
constexpr size_t kSwapCalls = 20;
/// Miss keys replayed stage by stage (the SurveyBank size).
constexpr size_t kStageKeys = 237;

/// Wall and thread-CPU time of one call, in ms.
struct CallTime {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

template <typename Fn>
CallTime Timed(SpanStore* spans, const char* name, uint64_t parent,
               uint64_t request, uint64_t* next_id, Fn&& fn) {
  const int64_t cpu0 = ThreadCpuNs(), wall0 = NowNs();
  fn();
  const int64_t wall1 = NowNs(), cpu1 = ThreadCpuNs();
  spans->Add({name, ++*next_id, parent, request, wall0, wall1});
  return {(wall1 - wall0) * 1e-6, (cpu1 - cpu0) * 1e-6};
}

/// Per-key measurements of the stage replay.
struct StageSamples {
  std::vector<double> generate_ms, generate_cpu_ms;
  std::vector<double> search_ms, khop_ms, subgraph_ms, realloc_ms,
      realloc_cpu_ms, edge_cost_ms, edge_cost_cpu_ms, solve_ms, solve_cpu_ms,
      path_ms, path_cpu_ms;
  std::vector<double> hits, visited, sg_nodes, sg_edges, terminals, wedges,
      settled, pushes;
  double generate_wall_sum = 0.0, generate_cpu_sum = 0.0, replay_sum = 0.0;
  size_t mismatches = 0;
};

/// The stage replay's working memory, reused across keys as Generate
/// reuses its QueryScratch.
struct ReplayScratch {
  rpg::graph::TraversalScratch khop_scratch;
  rpg::graph::KHopResult khop;
  rpg::graph::SubgraphScratch sg_scratch;
  rpg::graph::Subgraph sg;
  rpg::steiner::WeightedGraphBuilder builder{0};
  rpg::steiner::WeightedGraph wg;
  rpg::rank::ConScratch con;
};

/// Generate(key) once, then the same pipeline stage by stage through each
/// stage's public function with the inputs Generate uses; the replayed
/// tree must equal Generate's. Returns Generate's result (null on error).
std::shared_ptr<const rpg::core::RePagerResult> ReplayStages(
    const rpg::snapshot::ServingState& state, const PathKey& key,
    uint64_t request, SpanStore* spans, uint64_t* next_id,
    rpg::core::QueryScratch* scratch, ReplayScratch* rs, StageSamples* out) {
  using rpg::graph::PaperId;
  const rpg::core::RePagerOptions options = Reference::Options(key);
  rpg::Result<rpg::core::RePagerResult> generated =
      rpg::Status::Internal("not run");
  CallTime gen = Timed(spans, "core.generate", 0, request, next_id, [&] {
    generated = state.repager().Generate(key.query, options, scratch);
  });
  if (!generated.ok()) {
    ++out->mismatches;
    std::fprintf(stderr, "stage replay: Generate failed for \"%s\": %s\n",
                 key.query.c_str(), generated.status().ToString().c_str());
    return nullptr;
  }
  out->generate_ms.push_back(gen.wall_ms);
  out->generate_cpu_ms.push_back(gen.cpu_ms);
  out->generate_wall_sum += gen.wall_ms;
  out->generate_cpu_sum += gen.cpu_ms;

  const uint64_t root = ++*next_id;
  const int64_t root_start = NowNs();
  const auto& graph = state.graph();
  const auto& years = state.years();

  std::vector<rpg::search::SearchResult> hits;
  CallTime search = Timed(spans, "search.search", root, request, next_id, [&] {
    hits = state.engine().Search(key.query, options.num_initial_seeds,
                                 options.year_cutoff, options.exclude);
  });
  std::vector<PaperId> seeds;
  for (const auto& h : hits) seeds.push_back(h.doc);

  rpg::graph::KHopResult& khop = rs->khop;
  CallTime khop_t = Timed(spans, "graph.khop", root, request, next_id, [&] {
    rpg::graph::KHopNeighborhood(graph, seeds, options.expansion_hops,
                                 options.expansion_direction, &rs->khop_scratch,
                                 &khop);
  });
  size_t visited = 0;
  for (const auto& level : khop.levels) visited += level.size();

  rpg::graph::Subgraph& sg = rs->sg;
  CallTime sg_t = Timed(spans, "graph.subgraph", root, request, next_id, [&] {
    std::vector<PaperId> candidates;
    for (const auto& level : khop.levels) {
      for (PaperId p : level) {
        if (years[p] <= options.year_cutoff) candidates.push_back(p);
      }
    }
    sg.Assign(graph, candidates, &rs->sg_scratch);
  });

  std::vector<PaperId> terminals;
  CallTime realloc =
      Timed(spans, "core.seed_realloc", root, request, next_id, [&] {
        terminals = rpg::core::ReallocateSeeds(
            graph, seeds, options.seed_mode, options.min_cooccurrence);
        std::erase_if(terminals, [&](PaperId p) { return !sg.Contains(p); });
        if (terminals.empty()) {
          for (PaperId p : seeds) {
            if (sg.Contains(p)) terminals.push_back(p);
          }
        }
      });

  rpg::steiner::WeightedGraph& wg = rs->wg;
  CallTime edge = Timed(spans, "rank.edge_cost", root, request, next_id, [&] {
    rpg::core::BuildWeightedSubgraph(sg, state.weights(), &rs->builder, &wg,
                                     &rs->con);
  });

  std::vector<uint32_t> local_terminals;
  for (PaperId t : terminals) local_terminals.push_back(sg.ToLocal(t));
  rpg::Result<rpg::steiner::SteinerResult> solved =
      rpg::Status::Internal("not run");
  CallTime solve = Timed(spans, "steiner.solve", root, request, next_id, [&] {
    solved = rpg::steiner::SolveNewst(wg, local_terminals, options.newst);
  });

  rpg::core::ReadingPath path;
  CallTime path_t =
      Timed(spans, "core.reading_path", root, request, next_id, [&] {
        if (!solved.ok()) return;
        rpg::steiner::SteinerResult tree;
        tree.total_cost = solved->total_cost;
        for (uint32_t v : solved->nodes) tree.nodes.push_back(sg.ToGlobal(v));
        for (const auto& [a, b] : solved->edges) {
          PaperId ga = sg.ToGlobal(a), gb = sg.ToGlobal(b);
          tree.edges.emplace_back(std::min(ga, gb), std::max(ga, gb));
        }
        std::sort(tree.nodes.begin(), tree.nodes.end());
        std::sort(tree.edges.begin(), tree.edges.end());
        path = rpg::core::ReadingPath(tree, years);
      });
  spans->Add({"core.replay", root, 0, request, root_start, NowNs()});

  if (!solved.ok() || path.nodes() != generated->path.nodes() ||
      path.edges() != generated->path.edges()) {
    ++out->mismatches;
    std::fprintf(stderr, "stage replay: tree differs from Generate for "
                         "\"%s\" (seeds=%d, year=%d)\n",
                 key.query.c_str(), key.seeds, key.year);
  }
  out->search_ms.push_back(search.wall_ms);
  out->khop_ms.push_back(khop_t.wall_ms);
  out->subgraph_ms.push_back(sg_t.wall_ms);
  out->realloc_ms.push_back(realloc.wall_ms);
  out->realloc_cpu_ms.push_back(realloc.cpu_ms);
  out->edge_cost_ms.push_back(edge.wall_ms);
  out->edge_cost_cpu_ms.push_back(edge.cpu_ms);
  out->solve_ms.push_back(solve.wall_ms);
  out->solve_cpu_ms.push_back(solve.cpu_ms);
  out->path_ms.push_back(path_t.wall_ms);
  out->path_cpu_ms.push_back(path_t.cpu_ms);
  out->replay_sum += search.wall_ms + khop_t.wall_ms + sg_t.wall_ms +
                     realloc.wall_ms + edge.wall_ms + solve.wall_ms +
                     path_t.wall_ms;
  out->hits.push_back(static_cast<double>(hits.size()));
  out->visited.push_back(static_cast<double>(visited));
  out->sg_nodes.push_back(static_cast<double>(sg.num_nodes()));
  out->sg_edges.push_back(static_cast<double>(sg.num_edges()));
  out->terminals.push_back(static_cast<double>(terminals.size()));
  out->wedges.push_back(static_cast<double>(wg.num_edges()));
  if (solved.ok()) {
    out->settled.push_back(static_cast<double>(solved->stats.nodes_settled));
    out->pushes.push_back(static_cast<double>(solved->stats.heap_pushes));
  }
  return std::make_shared<const rpg::core::RePagerResult>(
      std::move(generated).value());
}

/// Lengths (or self times) in µs of the spans named `name`.
std::vector<double> SpanMicros(const std::vector<Span>& spans,
                               const std::vector<int64_t>& self,
                               const char* name, bool self_time) {
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) != name) continue;
    int64_t ns = self_time ? self[i] : spans[i].end_ns - spans[i].start_ns;
    out.push_back(static_cast<double>(ns) * 1e-3);
  }
  return out;
}

/// A cumulative engine statistic from /api/stats' engine document.
double Stat(const std::string& json, const char* section, const char* key) {
  return JsonNumber(json, section, key).value_or(0.0);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int RunTraced(const Args& args, const MachineState& machine) {
  const WorkloadSpec& spec = *args.spec;
  const std::string snapshot = args.workdir + "/workbench.snap";
  SpanStore spans;
  uint64_t next_span = 1ULL << 62;  // clear of the request-derived span ids
  std::vector<Metric> metrics;
  auto add = [&metrics](const char* name, double value, const char* unit,
                        size_t n) { metrics.push_back({name, value, unit, n}); };
  auto add_median = [&add](const char* name, std::vector<double> v,
                           const char* unit) {
    add(name, PlainMedian(v), unit, v.size());
  };

  // ---- set-up, one pass, with the eval and snapshot layers timed -------
  SnapshotBuild build;
  {
    const int64_t t0 = NowNs();
    auto built = BuildSnapshot(snapshot);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    build = std::move(built).value();
    spans.Add({"eval.setup", ++next_span, 0, 0, t0, NowNs()});
  }
  std::vector<rpg::serve::EpochHandle> epochs;
  std::vector<double> load_ms, load_cpu_ms;
  for (int i = 0; i < kEpochLoads; ++i) {
    rpg::Result<rpg::serve::EpochHandle> loaded =
        rpg::Status::Internal("not run");
    CallTime t = Timed(&spans, "snapshot.load_epoch", 0, 0, &next_span, [&] {
      loaded = rpg::serve::LoadEpochFromSnapshot(snapshot,
                                                 static_cast<uint64_t>(i + 1));
    });
    if (!loaded.ok()) {
      std::fprintf(stderr, "LoadEpochFromSnapshot: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    // Three epochs stay loaded: one to serve, two for the swap probe.
    if (epochs.size() < 3) epochs.push_back(std::move(loaded).value());
    load_ms.push_back(t.wall_ms);
    load_cpu_ms.push_back(t.cpu_ms);
  }
  auto reference_or = rpg::snapshot::ServingState::Load(snapshot);
  if (!reference_or.ok()) {
    std::fprintf(stderr, "reference: %s\n",
                 reference_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<rpg::snapshot::ServingState> reference_state =
      std::move(reference_or).value();

  // SwapEpoch logs every flip at info level; the probe below flips often.
  rpg::SetLogLevel(rpg::LogLevel::kWarning);

  // ---- the serving stack, in-process, as serve_ui builds it ------------
  rpg::serve::ServeEngine engine(epochs[0]);
  rpg::ui::RePagerService service(&engine);
  std::atomic<bool> recording{false};
  rpg::ui::HttpServer server(
      [&](const rpg::ui::HttpRequest& request, rpg::ui::HttpServer::Done done) {
        // The benchmark's AsyncHandler wrapper: a span from the call to
        // `done` on traced requests (the ones carrying a request id).
        auto rid_it = request.query.find("rid");
        if (!recording.load(std::memory_order_relaxed) ||
            rid_it == request.query.end()) {
          service.HandleAsync(request, std::move(done));
          return;
        }
        const uint64_t rid = std::strtoull(rid_it->second.c_str(), nullptr, 10);
        const int64_t start = NowNs();
        service.HandleAsync(
            request, [&spans, rid, start,
                      done = std::move(done)](rpg::ui::HttpResponse response) {
              spans.Add({"ui.handle", HandleSpanId(rid), RequestSpanId(rid), rid,
                         start, NowNs()});
              done(std::move(response));
            });
      });
  service.AttachServer(&server);
  auto port_or = server.Start(0);
  if (!port_or.ok()) {
    std::fprintf(stderr, "server: %s\n", port_or.status().ToString().c_str());
    return 1;
  }
  const int port = port_or.value();

  // ---- replay: the workload's own requests, untraced/traced alternating -
  const double pass_seconds =
      std::min(args.seconds, kMaxReplaySeconds) / kReplayPasses;
  std::atomic<uint64_t> next_rid{0};
  Hooks hooks{&spans, &next_rid};
  const std::string stats_before = engine.StatsJson();
  std::vector<Sample> all_reads, primes, checked_reads;
  std::vector<double> lat_traced, lat_untraced, lateness_ms;
  double rps_traced = 0, rps_untraced = 0, client_cpu_s = 0;
  size_t pass_hits = 0, pass_reads = 0, reloads = 0, failed_reloads = 0;
  Plan last_plan, first_plan;
  for (int p = 0; p < kReplayPasses; ++p) {
    const bool traced = p % 2 == 1;
    const size_t first_unique =
        static_cast<size_t>(p) * static_cast<size_t>(spec.rate_rps * pass_seconds);
    Plan plan = MakePlan(spec, build.base, args.seed, pass_seconds, snapshot,
                         first_unique);
    if (spec.kind != WorkloadKind::kUniqueMisses) {
      std::vector<Sample> primed =
          RequestEachKey(port, plan.keys, spec.read_connections);
      primes.insert(primes.end(), primed.begin(), primed.end());
    }
    recording.store(traced);
    PhaseResult phase = RunPhase(port, plan, traced ? &hooks : nullptr);
    recording.store(false);
    size_t correct = 0;
    for (const Sample& s : phase.reads) {
      lateness_ms.push_back(Lateness(s.t) * 1e3);
      if (s.status != 200) continue;
      ++correct;
      pass_hits += s.cache_hit ? 1 : 0;
      (traced ? lat_traced : lat_untraced)
          .push_back(LatencyMs(s, spec.open_loop));
    }
    pass_reads += phase.reads.size();
    (traced ? rps_traced : rps_untraced) +=
        correct / std::max(phase.elapsed_s, 1e-9) / (kReplayPasses / 2);
    client_cpu_s += phase.client_cpu_s;
    for (const Sample& s : phase.reloads) {
      ++reloads;
      if (!s.reload_ok) {
        std::fprintf(stderr, "replay: reload failed (status %d)\n", s.status);
        ++failed_reloads;
      }
    }
    if (p == 0) {
      first_plan = plan;
      checked_reads = phase.reads;
    } else {
      all_reads.insert(all_reads.end(), phase.reads.begin(), phase.reads.end());
    }
    last_plan = std::move(plan);
  }
  const std::string stats_after = engine.StatsJson();

  // ---- hit probe: the workload's keys once cached, over HTTP ----------
  if (spec.kind == WorkloadKind::kReloadChurn) {
    RequestEachKey(port, last_plan.keys, spec.read_connections);
  }
  Plan hit_plan;
  hit_plan.spec = FindWorkload("hot_hits");
  hit_plan.keys = last_plan.keys;
  hit_plan.seed = StreamSeed(args.seed, 5);
  hit_plan.seconds = kHitProbeSeconds;
  const size_t spans_before_probe = spans.size();
  recording.store(true);
  PhaseResult hit_probe = RunPhase(port, hit_plan, &hooks);
  recording.store(false);

  // ---- direct calls into the serve and ui layers -----------------------
  rpg::Rng rng(StreamSeed(args.seed, 6));
  std::vector<double> generate_hit_us;
  for (size_t i = 0; i < kDirectCalls; ++i) {
    const PathKey& key =
        hit_plan.keys[rng.Zipf(hit_plan.keys.size(), kZipfS) - 1];
    std::promise<bool> hit;
    const int64_t t0 = NowNs();
    int64_t t1 = 0;
    engine.GenerateAsync(key.query, key.seeds, key.year,
                         [&](rpg::Result<rpg::serve::ServeResponse> r) {
                           t1 = NowNs();
                           hit.set_value(r.ok() && r->cache_hit);
                         });
    if (hit.get_future().get()) generate_hit_us.push_back((t1 - t0) * 1e-3);
  }
  std::vector<double> frame_us;
  for (size_t i = 0; i < kDirectCalls; ++i) {
    uint32_t k = last_plan.key_of.empty()
                     ? static_cast<uint32_t>(
                           rng.Zipf(last_plan.keys.size(), kZipfS) - 1)
                     : last_plan.key_of[i % last_plan.key_of.size()];
    const std::string bytes = "GET " + PathTarget(last_plan.keys[k]) +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    const int64_t t0 = NowNs();
    rpg::ui::FrameResult framed =
        rpg::ui::FrameOneRequest(bytes, false, rpg::ui::FramingLimits{});
    const int64_t t1 = NowNs();
    if (framed.verdict == rpg::ui::FrameResult::Verdict::kRequest) {
      frame_us.push_back((t1 - t0) * 1e-3);
    }
  }
  std::vector<double> swap_us;
  for (size_t i = 0; i < kSwapCalls; ++i) {
    const auto& next = epochs[1 + i % (epochs.size() - 1)];
    const int64_t t0 = NowNs();
    engine.SwapEpoch(next);
    swap_us.push_back((NowNs() - t0) * 1e-3);
  }
  server.Stop();

  // ---- stage replay over the workload's miss keys ---------------------
  std::vector<PathKey> stage_keys(
      first_plan.keys.begin(),
      first_plan.keys.begin() +
          static_cast<long>(std::min(kStageKeys, first_plan.keys.size())));
  StageSamples stages;
  rpg::core::QueryScratch scratch;
  ReplayScratch replay_scratch;
  std::vector<std::optional<uint64_t>> expected(first_plan.keys.size());
  std::vector<bool> checked(first_plan.keys.size(), false);
  rpg::serve::QueryCache cache;
  std::vector<std::string> cache_keys;
  for (size_t i = 0; i < stage_keys.size(); ++i) {
    auto result = ReplayStages(*reference_state, stage_keys[i], i + 1, &spans,
                               &next_span, &scratch, &replay_scratch, &stages);
    checked[i] = true;
    if (result == nullptr) continue;
    expected[i] = PathFingerprint(result->path, reference_state->years());
    cache_keys.push_back(rpg::serve::CanonicalQueryKey(
        stage_keys[i].query, stage_keys[i].seeds, stage_keys[i].year));
    cache.Insert(cache_keys.back(), result);
  }
  std::vector<double> lookup_us;
  for (size_t i = 0; i < kDirectCalls && !cache_keys.empty(); ++i) {
    const std::string& key = cache_keys[rng.Zipf(cache_keys.size(), kZipfS) - 1];
    const int64_t t0 = NowNs();
    auto found = cache.Lookup(key);
    const int64_t t1 = NowNs();
    if (found) lookup_us.push_back((t1 - t0) * 1e-3);
  }

  // ---- output check --------------------------------------------------------
  // Pass 0 and the primes carry the stage keys' indices; other passes'
  // answers (and unique_misses keys outside the stage set) must be 200s
  // with a reading path.
  const bool same_keys = spec.kind != WorkloadKind::kUniqueMisses;
  size_t failed = CountFailures(checked_reads, &expected, &checked) +
                  CountFailures(primes, &expected, &checked) +
                  CountFailures(all_reads, same_keys ? &expected : nullptr,
                                &checked) +
                  CountFailures(hit_probe.reads, same_keys ? &expected : nullptr,
                                &checked) +
                  stages.mismatches + failed_reloads;
  const uint64_t attempted = reloads + checked_reads.size() + primes.size() +
                             all_reads.size() + hit_probe.reads.size() +
                             stage_keys.size();

  // ---- per-layer metrics ---------------------------------------------------
  const std::vector<Span> all_spans = spans.Snapshot();
  const std::vector<int64_t> self = SelfTimesNs(all_spans);
  const std::vector<Span> probe_spans(all_spans.begin() + static_cast<long>(
                                                              spans_before_probe),
                                      all_spans.end());
  const std::vector<int64_t> probe_self(self.begin() + static_cast<long>(
                                                           spans_before_probe),
                                        self.end());
  std::vector<double> queue_wait_ms;
  for (const auto* set : {&checked_reads, &primes, &all_reads}) {
    for (const Sample& s : *set) {
      if (s.queue_wait_ms >= 0) queue_wait_ms.push_back(s.queue_wait_ms);
    }
  }
  std::vector<double> response_bytes;
  for (const Sample& s : hit_probe.reads) response_bytes.push_back(s.bytes);

  auto late_p99 = PercentileOf(&lateness_ms, 0.99);
  add("loadgen.late_p99_ms",
      late_p99 ? late_p99->value
               : *std::max_element(lateness_ms.begin(), lateness_ms.end()),
      "ms", lateness_ms.size());
  add("loadgen.client_cpu_s", client_cpu_s, "s", kReplayPasses);

  const double handle_us =
      PlainMedian(SpanMicros(probe_spans, probe_self, "ui.handle", false));
  const double hit_us = PlainMedian(generate_hit_us);
  add_median("ui.request_us",
             SpanMicros(probe_spans, probe_self, "ui.request", false), "us");
  add_median("ui.handle_us",
             SpanMicros(probe_spans, probe_self, "ui.handle", false), "us");
  add_median("ui.reactor_us",
             SpanMicros(probe_spans, probe_self, "ui.request", true), "us");
  add_median("ui.frame_us", frame_us, "us");
  add("ui.render_us", handle_us - hit_us, "us", generate_hit_us.size());
  add_median("ui.response_bytes", response_bytes, "bytes");

  add_median("serve.generate_hit_us", generate_hit_us, "us");
  add_median("serve.cache_lookup_us", lookup_us, "us");
  add_median("serve.queue_wait_ms", queue_wait_ms, "ms");
  const double d_batches = Stat(stats_after, "batcher", "batches") -
                           Stat(stats_before, "batcher", "batches");
  const double d_batched = Stat(stats_after, "batcher", "requests") -
                           Stat(stats_before, "batcher", "requests");
  const double d_coalesced = Stat(stats_after, "counters", "coalesced_hits") -
                             Stat(stats_before, "counters", "coalesced_hits");
  const double d_misses = Stat(stats_after, "counters", "cache_misses") -
                          Stat(stats_before, "counters", "cache_misses");
  const double d_stale = Stat(stats_after, "cache", "stale_evictions") -
                         Stat(stats_before, "cache", "stale_evictions");
  const double d_flips = Stat(stats_after, "epoch", "flips") -
                         Stat(stats_before, "epoch", "flips");
  add("serve.batch_size_mean", Ratio(d_batched, d_batches), "count",
      static_cast<size_t>(d_batches));
  add("serve.coalesced_ratio", Ratio(d_coalesced, d_misses), "ratio",
      static_cast<size_t>(d_misses));
  add("serve.stale_evictions_per_reload", Ratio(d_stale, d_flips), "count",
      static_cast<size_t>(d_flips));
  add_median("serve.swap_epoch_us", swap_us, "us");
  add("serve.hit_ratio", Ratio(pass_hits, pass_reads), "ratio", pass_reads);

  add_median("core.generate_ms", stages.generate_ms, "ms");
  add_median("core.generate_cpu_ms", stages.generate_cpu_ms, "ms");
  // Thread CPU can read a hair above wall time on a fully on-CPU call.
  add("core.off_cpu_frac",
      std::max(0.0, 1.0 - Ratio(stages.generate_cpu_sum,
                                stages.generate_wall_sum)),
      "ratio",
      stages.generate_ms.size());
  add("core.attributed_fraction",
      Ratio(stages.replay_sum, stages.generate_wall_sum), "ratio",
      stages.generate_ms.size());
  add_median("search.search_ms", stages.search_ms, "ms");
  add_median("search.hits", stages.hits, "count");
  add_median("graph.khop_ms", stages.khop_ms, "ms");
  add_median("graph.khop_visited", stages.visited, "count");
  add_median("graph.subgraph_ms", stages.subgraph_ms, "ms");
  add_median("graph.subgraph_nodes", stages.sg_nodes, "count");
  add_median("graph.subgraph_edges", stages.sg_edges, "count");
  add_median("core.seed_realloc_ms", stages.realloc_ms, "ms");
  add_median("core.seed_realloc_cpu_ms", stages.realloc_cpu_ms, "ms");
  add_median("core.terminals", stages.terminals, "count");
  add_median("rank.edge_cost_ms", stages.edge_cost_ms, "ms");
  add_median("rank.edge_cost_cpu_ms", stages.edge_cost_cpu_ms, "ms");
  add_median("rank.weighted_edges", stages.wedges, "count");
  add_median("steiner.solve_ms", stages.solve_ms, "ms");
  add_median("steiner.solve_cpu_ms", stages.solve_cpu_ms, "ms");
  add_median("steiner.nodes_settled", stages.settled, "count");
  add_median("steiner.heap_pushes", stages.pushes, "count");
  add_median("core.reading_path_ms", stages.path_ms, "ms");
  add_median("core.reading_path_cpu_ms", stages.path_cpu_ms, "ms");

  add_median("snapshot.load_epoch_ms", load_ms, "ms");
  add_median("snapshot.load_epoch_cpu_ms", load_cpu_ms, "ms");
  add("snapshot.file_bytes", static_cast<double>(build.file_bytes), "bytes", 1);
  add("eval.workbench_create_s", build.workbench_s, "s", 1);

  const double untraced_p50 = PlainMedian(lat_untraced);
  const double traced_p50 = PlainMedian(lat_traced);
  add("trace.untraced_p50_ms", untraced_p50, "ms", lat_untraced.size());
  add("trace.traced_p50_ms", traced_p50, "ms", lat_traced.size());
  add("trace.overhead_ratio", Ratio(traced_p50, untraced_p50), "ratio",
      lat_traced.size());
  add("trace.untraced_rps", rps_untraced, "1/s", lat_untraced.size());
  add("trace.traced_rps", rps_traced, "1/s", lat_traced.size());

  const std::string span_file =
      args.workdir + "/spans-" + spec.name + ".jsonl";
  if (!spans.WriteJsonLines(span_file)) {
    std::fprintf(stderr, "could not write %s\n", span_file.c_str());
  }
  char extra[512];
  std::snprintf(extra, sizeof(extra),
                "\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
                "\"mode\":\"traced\",\"server\":{\"engine_threads\":%zu,"
                "\"pollers\":%d},\"spans\":%zu,\"span_file\":\"%s\"",
                spec.name, static_cast<unsigned long long>(args.seed),
                args.seconds, engine.num_threads(),
                rpg::ui::HttpServerOptions{}.num_pollers, all_spans.size(),
                span_file.c_str());
  std::remove(snapshot.c_str());
  PrintResult(machine, metrics, extra, failed == 0, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench
