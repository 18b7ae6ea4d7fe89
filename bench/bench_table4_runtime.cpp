// Reproduces Table IV: running time of the RePaGer pipeline on retrieval
// cases of growing sub-citation-graph size, plus the average over an
// evaluation sample. Implemented with google-benchmark for the per-case
// timing, followed by a plain Table IV printout.
//
// Also benchmarks the Steiner hot path head-to-head: the classic
// per-terminal metric closure (O(|S| E log V)) vs the Mehlhorn
// single-pass closure (O(E log V)) on |S| >= 16 workloads, and writes
// machine-readable results (timings + SteinerStats work counters) to
// BENCH_table4.json so future PRs have a perf trajectory to compare
// against.
//
// Expected shape (paper): time grows superlinearly with #nodes/#edges
// under the classic closure; the Mehlhorn mode removes the |S| factor.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <latch>
#include <memory>
#include <optional>
#include <vector>

#include "bench_common.h"
#include "common/json_writer.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/repager.h"
#include "eval/evaluator.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "obs/trace.h"
#include "serve/solve_queue.h"
#include "steiner/newst.h"

namespace {

using namespace rpg;

std::unique_ptr<eval::Workbench> g_wb;
std::vector<size_t> g_sample;

/// Runs RePaGer for the sample query at `index` with the given seed
/// count; more seeds -> larger sub-graphs (the Table IV case axis).
core::RePagerResult RunCase(size_t index, int num_seeds) {
  const auto& entry = g_wb->bank().Get(g_sample[index]);
  core::RePagerOptions options;
  options.num_initial_seeds = num_seeds;
  options.year_cutoff = entry.year;
  options.exclude = {entry.paper};
  auto result_or = g_wb->repager().Generate(entry.query, options);
  if (!result_or.ok()) {
    std::fprintf(stderr, "case failed: %s\n",
                 result_or.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result_or).value();
}

void BM_RePaGerPipeline(benchmark::State& state) {
  int num_seeds = static_cast<int>(state.range(0));
  size_t nodes = 0, edges = 0;
  for (auto _ : state) {
    core::RePagerResult result = RunCase(0, num_seeds);
    nodes = result.subgraph_nodes;
    edges = result.subgraph_edges;
    benchmark::DoNotOptimize(result.ranked.data());
  }
  state.counters["subgraph_nodes"] = static_cast<double>(nodes);
  state.counters["subgraph_edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_RePaGerPipeline)->Arg(10)->Arg(30)->Arg(50)
    ->Unit(benchmark::kMillisecond);

/// One measured solver run for the closure-mode comparison. The closure
/// phase timing lives in stats.closure_seconds.
struct SolverMeasurement {
  double seconds = 0.0;  // best-of-reps full solve
  double tree_cost = 0.0;
  steiner::SteinerStats stats;
};

SolverMeasurement MeasureMode(const steiner::WeightedGraph& g,
                              const std::vector<uint32_t>& terminals,
                              steiner::ClosureMode mode, int reps) {
  SolverMeasurement m;
  m.seconds = 1e30;
  steiner::NewstOptions options;
  options.closure_mode = mode;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    auto result = SolveNewst(g, terminals, options);
    double s = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "solver failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    if (s < m.seconds) {
      m.seconds = s;
      m.tree_cost = result->total_cost;
      m.stats = result->stats;
    }
  }
  return m;
}

/// A Steiner workload: the weighted sub-graph + local terminals RePaGer
/// would solve for one retrieval case, padded with extra engine hits
/// until |S| >= min_terminals.
struct SteinerCase {
  steiner::WeightedGraph graph;
  std::vector<uint32_t> terminals;
};

std::optional<SteinerCase> BuildSteinerCase(size_t index, int num_seeds,
                                            size_t min_terminals) {
  const auto& entry = g_wb->bank().Get(g_sample[index]);
  auto hits = g_wb->google().Search(entry.query, num_seeds, entry.year,
                                    {entry.paper});
  if (hits.empty()) return std::nullopt;
  std::vector<graph::PaperId> seeds;
  for (const auto& h : hits) seeds.push_back(h.doc);
  auto khop = KHopNeighborhood(g_wb->corpus().citations, seeds, 2,
                               graph::Direction::kOut);
  graph::Subgraph sg(g_wb->corpus().citations, khop.AllNodes());
  SteinerCase c;
  c.graph = core::BuildWeightedSubgraph(sg, g_wb->weights());
  std::vector<uint8_t> used(sg.num_nodes(), 0);
  auto add_terminal = [&](graph::PaperId p) {
    uint32_t local = sg.ToLocal(p);
    if (local == UINT32_MAX || used[local]) return;
    used[local] = 1;
    c.terminals.push_back(local);
  };
  for (graph::PaperId p :
       core::CoOccurrencePapers(g_wb->corpus().citations, seeds, 2)) {
    add_terminal(p);
  }
  // Pad with the raw engine seeds so every case reaches min_terminals.
  for (graph::PaperId s : seeds) {
    if (c.terminals.size() >= min_terminals) break;
    add_terminal(s);
  }
  if (c.terminals.size() < min_terminals) return std::nullopt;
  return c;
}

void WriteJson(JsonWriter& w, const SolverMeasurement& m) {
  w.BeginObject();
  w.Key("seconds").Double(m.seconds);
  w.Key("closure_seconds").Double(m.stats.closure_seconds);
  w.Key("tree_cost").Double(m.tree_cost);
  w.Key("nodes_settled").UInt(m.stats.nodes_settled);
  w.Key("heap_pushes").UInt(m.stats.heap_pushes);
  w.Key("closure_edges").UInt(m.stats.closure_edges);
  w.Key("dijkstra_runs").UInt(m.stats.dijkstra_runs);
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchConfig config = bench::LoadBenchConfig();
  g_wb = bench::BuildWorkbenchOrDie(config);
  g_sample = eval::Evaluator::SampleEntries(g_wb->bank(),
                                            config.eval_queries,
                                            config.sample_seed);
  if (g_sample.empty()) {
    std::fprintf(stderr, "no sample queries\n");
    return 1;
  }

  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();

  JsonWriter json;
  json.BeginObject();

  // Table IV printout: three representative cases + test-set average.
  std::printf("\n=== Table IV: running time under different retrieval cases ===\n");
  TablePrinter table({"case", "#nodes", "#edges", "Time (seconds)"});
  json.Key("pipeline_cases").BeginArray();
  const int case_seeds[] = {10, 30, 50};
  for (int i = 0; i < 3; ++i) {
    core::RePagerResult result = RunCase(0, case_seeds[i]);
    table.AddRow({StrFormat("Case %d", i + 1),
                  std::to_string(result.subgraph_nodes),
                  std::to_string(result.subgraph_edges),
                  FormatDouble(result.total_seconds, 2)});
    json.BeginObject();
    json.Key("num_seeds").Int(case_seeds[i]);
    json.Key("subgraph_nodes").UInt(result.subgraph_nodes);
    json.Key("subgraph_edges").UInt(result.subgraph_edges);
    json.Key("total_seconds").Double(result.total_seconds);
    json.Key("steiner_seconds").Double(result.steiner_seconds);
    json.Key("steiner_nodes_settled").UInt(result.steiner_stats.nodes_settled);
    json.EndObject();
  }
  json.EndArray();
  // Average over the evaluation sample at the default 30 seeds. The same
  // pass accumulates per-stage span times for the attribution section
  // below, so make sure spans are actually recorded.
  obs::SetTracingEnabled(true);
  double total_nodes = 0, total_edges = 0, total_time = 0;
  double stage_ms_sum[obs::kNumPipelineStages] = {};
  size_t runs = std::min<size_t>(g_sample.size(), 20);
  for (size_t i = 0; i < runs; ++i) {
    core::RePagerResult result = RunCase(i, 30);
    total_nodes += static_cast<double>(result.subgraph_nodes);
    total_edges += static_cast<double>(result.subgraph_edges);
    total_time += result.total_seconds;
    for (size_t s = 0; s < obs::kNumPipelineStages; ++s) {
      stage_ms_sum[s] += result.stages.StageMs(obs::kPipelineStages[s]);
    }
  }
  table.AddRow({"Avg. (test set)",
                std::to_string(static_cast<size_t>(total_nodes / runs)),
                std::to_string(static_cast<size_t>(total_edges / runs)),
                FormatDouble(total_time / static_cast<double>(runs), 2)});
  table.Print(std::cout);
  json.Key("avg_total_seconds")
      .Double(total_time / static_cast<double>(runs));

  // --- Per-stage latency attribution over the same sample --------------
  // Where the pipeline time goes, stage by stage, from the tracing spans
  // (docs/observability.md). attributed_fraction is the share of the
  // wall-clock total the spans explain; the perf gate asserts it stays
  // >= 0.9 so a stage can never silently fall out of the instrumentation.
  // With RPG_TRACING=OFF the section still prints, but all zeros.
  std::printf("\n=== Per-stage latency attribution (avg over sample) ===\n");
  TablePrinter stage_table({"stage", "avg ms", "share of total"});
  const double runs_d = static_cast<double>(runs);
  const double total_ms = total_time * 1e3;
  double attributed_ms = 0;
  for (size_t s = 0; s < obs::kNumPipelineStages; ++s) {
    attributed_ms += stage_ms_sum[s];
  }
  json.Key("stages").BeginObject();
  for (size_t s = 0; s < obs::kNumPipelineStages; ++s) {
    const std::string name = obs::StageName(obs::kPipelineStages[s]);
    stage_table.AddRow(
        {name, FormatDouble(stage_ms_sum[s] / runs_d, 3),
         FormatDouble(total_ms > 0 ? stage_ms_sum[s] / total_ms : 0.0, 3)});
    json.Key(name + "_ms").Double(stage_ms_sum[s] / runs_d);
  }
  double attributed_fraction = total_ms > 0 ? attributed_ms / total_ms : 0.0;
  stage_table.AddRow({"(attributed)", FormatDouble(attributed_ms / runs_d, 3),
                      FormatDouble(attributed_fraction, 3)});
  json.Key("total_ms").Double(total_ms / runs_d);
  json.Key("attributed_fraction").Double(attributed_fraction);
  json.EndObject();
  stage_table.Print(std::cout);

  // --- Tracing overhead: same sample, spans on vs off ------------------
  // Interleaved best-of-reps so both modes see the same cache/thermal
  // state; the perf gate holds overhead_ratio <= 1.05.
  const int kTraceReps = 3;
  double traced_best = 1e30, untraced_best = 1e30;
  for (int r = 0; r < kTraceReps; ++r) {
    obs::SetTracingEnabled(true);
    Timer traced_timer;
    for (size_t i = 0; i < runs; ++i) RunCase(i, 30);
    traced_best = std::min(traced_best, traced_timer.ElapsedSeconds());
    obs::SetTracingEnabled(false);
    Timer untraced_timer;
    for (size_t i = 0; i < runs; ++i) RunCase(i, 30);
    untraced_best = std::min(untraced_best, untraced_timer.ElapsedSeconds());
  }
  obs::SetTracingEnabled(true);
  double overhead_ratio =
      untraced_best > 0 ? traced_best / untraced_best : 0.0;
  std::printf("\ntracing overhead: traced %.3fs vs untraced %.3fs "
              "(ratio %.4f)\n",
              traced_best, untraced_best, overhead_ratio);
  json.Key("tracing").BeginObject();
  json.Key("compiled_in").Bool(obs::kTracingCompiledIn);
  json.Key("traced_seconds").Double(traced_best);
  json.Key("untraced_seconds").Double(untraced_best);
  json.Key("overhead_ratio").Double(overhead_ratio);
  json.EndObject();

  // --- Steiner hot path: classic per-terminal closure vs Mehlhorn ------
  std::printf("\n=== Metric closure: classic (per-terminal Dijkstra) vs "
              "Mehlhorn (single pass), |S| >= 16 ===\n");
  TablePrinter closure_table({"|V|", "|E|", "|S|", "classic ms", "fast ms",
                              "closure speedup", "total speedup",
                              "cost ratio"});
  json.Key("closure_comparison").BeginArray();
  const int kReps = 5;
  const size_t kMinTerminals = 16;
  size_t cases_done = 0;
  double worst_closure_speedup = 1e30;
  for (size_t i = 0; i < g_sample.size() && cases_done < 6; ++i) {
    auto c = BuildSteinerCase(i, 50, kMinTerminals);
    if (!c) continue;
    SolverMeasurement classic =
        MeasureMode(c->graph, c->terminals, steiner::ClosureMode::kClassic,
                    kReps);
    SolverMeasurement fast =
        MeasureMode(c->graph, c->terminals, steiner::ClosureMode::kMehlhorn,
                    kReps);
    // A fast closure too quick for the clock to resolve has no
    // measurable ratio — report it as such rather than a fake 0 that
    // would poison the worst-case aggregate.
    bool closure_measurable = fast.stats.closure_seconds > 0.0;
    double closure_speedup =
        closure_measurable
            ? classic.stats.closure_seconds / fast.stats.closure_seconds
            : 0.0;
    bool total_measurable = fast.seconds > 0.0;
    double total_speedup = total_measurable ? classic.seconds / fast.seconds
                                            : 0.0;
    if (closure_measurable) {
      worst_closure_speedup = std::min(worst_closure_speedup, closure_speedup);
    }
    closure_table.AddRow(
        {std::to_string(c->graph.num_nodes()),
         std::to_string(c->graph.num_edges()),
         std::to_string(c->terminals.size()),
         FormatDouble(classic.seconds * 1e3, 2),
         FormatDouble(fast.seconds * 1e3, 2),
         closure_measurable ? FormatDouble(closure_speedup, 1) : "n/a",
         total_measurable ? FormatDouble(total_speedup, 1) : "n/a",
         FormatDouble(fast.tree_cost / classic.tree_cost, 4)});
    json.BeginObject();
    json.Key("subgraph_nodes").UInt(c->graph.num_nodes());
    json.Key("subgraph_edges").UInt(c->graph.num_edges());
    json.Key("num_terminals").UInt(c->terminals.size());
    json.Key("classic");
    WriteJson(json, classic);
    json.Key("fast");
    WriteJson(json, fast);
    json.Key("closure_speedup");
    if (closure_measurable) {
      json.Double(closure_speedup);
    } else {
      json.Null();
    }
    json.Key("total_speedup");
    if (total_measurable) {
      json.Double(total_speedup);
    } else {
      json.Null();
    }
    json.EndObject();
    ++cases_done;
  }
  json.EndArray();
  closure_table.Print(std::cout);
  if (cases_done > 0 && worst_closure_speedup < 1e30) {
    std::printf("\nworst-case closure speedup (Mehlhorn vs classic): %.1fx\n",
                worst_closure_speedup);
  }

  // --- Batched end-to-end: serial Generate vs SolveQueue ---------------
  // The whole evaluation sample (twice, so the pool has enough work per
  // worker) at the default 30 seeds, submitted to an unbounded
  // serve::SolveQueue swept over 1/2/4/8 threads; each solve gets a
  // fresh scratch, as in serving. Per-query results must be
  // bit-identical to serial.
  std::printf("\n=== Batched query engine: serial vs SolveQueue "
              "(1/2/4/8 threads) ===\n");
  // g_wb outlives every batch, so a non-owning substrate handle suffices.
  const std::shared_ptr<const core::RePaGer> repager(
      std::shared_ptr<const void>(), &g_wb->repager());
  std::vector<core::BatchQuery> batch_queries;
  const size_t batch_sample = std::min<size_t>(g_sample.size(), 20);
  for (int rep = 0; rep < 2; ++rep) {
    for (size_t i = 0; i < batch_sample; ++i) {
      const auto& entry = g_wb->bank().Get(g_sample[i]);
      core::BatchQuery q;
      q.query = entry.query;
      q.options.num_initial_seeds = 30;
      q.options.year_cutoff = entry.year;
      q.options.exclude = {entry.paper};
      q.repager = repager;
      batch_queries.push_back(std::move(q));
    }
  }

  // Serial baseline: plain Generate per query (fresh scratch every call,
  // the pre-batching behaviour).
  std::vector<core::RePagerResult> serial_results;
  serial_results.reserve(batch_queries.size());
  Timer serial_timer;
  for (const auto& q : batch_queries) {
    auto r = g_wb->repager().Generate(q.query, q.options);
    if (!r.ok()) {
      std::fprintf(stderr, "serial batch query failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    serial_results.push_back(std::move(r).value());
  }
  double serial_seconds = serial_timer.ElapsedSeconds();

  // Serial + one reused scratch: isolates the allocation-reuse win from
  // the threading win.
  {
    core::QueryScratch scratch;
    // Mirror the serial baseline's timed work exactly (Generate + store);
    // the identity check runs after the clock stops.
    std::vector<core::RePagerResult> scratch_results;
    scratch_results.reserve(batch_queries.size());
    Timer t;
    for (const auto& q : batch_queries) {
      auto r = g_wb->repager().Generate(q.query, q.options, &scratch);
      if (!r.ok()) {
        std::fprintf(stderr, "serial+scratch query failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(1);
      }
      scratch_results.push_back(std::move(r).value());
    }
    double scratch_seconds = t.ElapsedSeconds();
    for (size_t i = 0; i < scratch_results.size(); ++i) {
      if (scratch_results[i].ranked != serial_results[i].ranked) {
        std::fprintf(stderr,
                     "serial+scratch results diverged at query %zu\n", i);
        std::exit(1);
      }
    }
    std::printf("serial: %.3fs   serial+scratch: %.3fs (%.2fx)\n",
                serial_seconds, scratch_seconds,
                scratch_seconds > 0 ? serial_seconds / scratch_seconds : 0.0);
    json.Key("batched").BeginObject();
    json.Key("num_queries").UInt(batch_queries.size());
    json.Key("serial_seconds").Double(serial_seconds);
    json.Key("serial_scratch_seconds").Double(scratch_seconds);
  }

  TablePrinter batch_table({"threads", "seconds", "speedup", "identical"});
  json.Key("runs").BeginArray();
  for (int threads : {1, 2, 4, 8}) {
    std::vector<Result<core::RePagerResult>> results(
        batch_queries.size(), Status::Internal("query not executed"));
    std::latch done(static_cast<std::ptrdiff_t>(batch_queries.size()));
    // Declared after what its callbacks touch, so its workers are joined
    // before those are destroyed.
    serve::SolveQueue queue(threads, {.max_queue_depth = 0});
    Timer wall;
    for (size_t i = 0; i < batch_queries.size(); ++i) {
      queue.SubmitAsync(batch_queries[i],
                        [&results, &done, i](Result<core::RePagerResult> r) {
                          results[i] = std::move(r);  // distinct slots
                          done.count_down();
                        });
    }
    done.wait();
    const double wall_seconds = wall.ElapsedSeconds();
    bool identical = true;
    double sum_query_seconds = 0.0;
    uint64_t nodes_settled = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      identical = identical && r.ok() &&
                  r->ranked == serial_results[i].ranked &&
                  r->path.nodes() == serial_results[i].path.nodes() &&
                  r->path.edges() == serial_results[i].path.edges();
      if (!r.ok()) continue;
      sum_query_seconds += r->total_seconds;
      nodes_settled += r->steiner_stats.nodes_settled;
    }
    double speedup = wall_seconds > 0 ? serial_seconds / wall_seconds : 0.0;
    batch_table.AddRow({std::to_string(threads), FormatDouble(wall_seconds, 3),
                        FormatDouble(speedup, 2), identical ? "yes" : "NO"});
    json.BeginObject();
    json.Key("threads").Int(threads);
    json.Key("seconds").Double(wall_seconds);
    json.Key("speedup").Double(speedup);
    json.Key("identical").Bool(identical);
    json.Key("sum_query_seconds").Double(sum_query_seconds);
    json.Key("steiner_nodes_settled").UInt(nodes_settled);
    json.EndObject();
    if (!identical) {
      std::fprintf(stderr,
                   "batched results diverged from serial (threads=%d)\n",
                   threads);
      std::exit(1);
    }
  }
  json.EndArray();
  json.EndObject();  // batched
  batch_table.Print(std::cout);

  json.EndObject();

  std::ofstream out("BENCH_table4.json");
  out << json.str() << "\n";
  out.close();
  std::printf("wrote BENCH_table4.json\n");
  g_wb.reset();
  return 0;
}
