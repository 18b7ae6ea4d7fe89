// Tests for the observability layer (src/obs, docs/observability.md):
// span/trace units, Prometheus exposition conformance, and live-server
// integration — debug span breakdowns over /api/path?debug=1, /metrics
// scrape wellformedness, slow-query logging, and a concurrent
// scrape-while-serving exercise (run under TSan by the sanitizer CI job).

#include "obs/trace.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "../serve/serve_test_util.h"
#include "common/json_writer.h"
#include "obs/prometheus.h"
#include "serve/serve_engine.h"
#include "ui/http_client.h"
#include "ui/http_server.h"
#include "ui/repager_service.h"

namespace rpg::obs {
namespace {

// ------------------------------------------------------------ span units

TEST(SpanSetTest, AddStageMsAndTotalMs) {
  SpanSet set;
  set.Add(Stage::kSearch, 0, 2'000'000, 7);       // 2 ms
  set.Add(Stage::kSteiner, 2'000'000, 5'000'000, 100);  // 5 ms
  set.Add(Stage::kSteiner, 9'000'000, 1'000'000, 1);    // +1 ms
  EXPECT_EQ(set.count, 3u);
  EXPECT_DOUBLE_EQ(set.StageMs(Stage::kSearch), 2.0);
  EXPECT_DOUBLE_EQ(set.StageMs(Stage::kSteiner), 6.0);
  EXPECT_DOUBLE_EQ(set.StageMs(Stage::kRank), 0.0);
  EXPECT_DOUBLE_EQ(set.TotalMs(), 8.0);
  set.Clear();
  EXPECT_EQ(set.count, 0u);
  EXPECT_DOUBLE_EQ(set.TotalMs(), 0.0);
}

TEST(SpanSetTest, CapacityOverflowCountsDroppedInsteadOfWriting) {
  SpanSet set;
  for (uint32_t i = 0; i < SpanSet::kCapacity + 5; ++i) {
    set.Add(Stage::kRank, i, 1, 0);
  }
  EXPECT_EQ(set.count, SpanSet::kCapacity);
  EXPECT_EQ(set.dropped, 5u);
}

TEST(StageNameTest, EveryStageHasAStableLowercaseName) {
  const char* expected[kNumStages] = {
      "search",       "khop",    "subgraph",          "seed_realloc",
      "edge_cost",    "steiner", "reading_path",      "rank",
      "cache_lookup", "singleflight_wait", "batch_queue", "solve"};
  for (size_t i = 0; i < kNumStages; ++i) {
    EXPECT_STREQ(StageName(static_cast<Stage>(i)), expected[i]);
  }
}

TEST(TraceContextTest, NextRequestIdIsMonotonic) {
  uint64_t a = TraceContext::NextRequestId();
  uint64_t b = TraceContext::NextRequestId();
  EXPECT_GT(b, a);
}

TEST(TraceContextTest, ResetClearsSpansAndRestartsClock) {
  TraceContext ctx;
  ctx.AddSpan(Stage::kSearch, 0, 100, 1);
  ctx.set_query_key("old");
  ctx.Reset(42);
  EXPECT_EQ(ctx.request_id(), 42u);
  EXPECT_EQ(ctx.spans().count, 0u);
  EXPECT_LT(ctx.NowNs(), 1'000'000'000ull);  // origin restarted
}

TEST(TraceContextTest, AddSpanBetweenClampsPointsBeforeOrigin) {
  auto before = TraceContext::Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  TraceContext ctx;
  auto after = TraceContext::Clock::now();
  ctx.AddSpanBetween(Stage::kBatchQueue, before, after, 3);
  ASSERT_EQ(ctx.spans().count, 1u);
  EXPECT_EQ(ctx.spans().spans[0].start_ns, 0u);  // clamped to origin
  EXPECT_GT(ctx.spans().spans[0].dur_ns, 0u);
  EXPECT_EQ(ctx.spans().spans[0].value, 3u);
}

TEST(TraceContextTest, AppendRebasedShiftsOntoRequestAxis) {
  SpanSet pipeline;
  pipeline.Add(Stage::kSearch, 0, 1000, 0);
  pipeline.Add(Stage::kRank, 5000, 2000, 0);
  TraceContext ctx;
  ctx.AppendRebased(pipeline, 100'000);
  ASSERT_EQ(ctx.spans().count, 2u);
  EXPECT_EQ(ctx.spans().spans[0].start_ns, 100'000u);
  EXPECT_EQ(ctx.spans().spans[1].start_ns, 105'000u);
  EXPECT_EQ(ctx.spans().spans[1].dur_ns, 2000u);
}

TEST(ScopedSpanTest, RecordsOnDestructionAndIgnoresNullContext) {
  TraceContext ctx;
  {
    ScopedSpan span(&ctx, Stage::kSubgraph);
    span.set_value(9);
  }
  ASSERT_EQ(ctx.spans().count, 1u);
  EXPECT_EQ(ctx.spans().spans[0].stage, Stage::kSubgraph);
  EXPECT_EQ(ctx.spans().spans[0].value, 9u);
  { ScopedSpan noop(nullptr, Stage::kRank); }  // must not crash
}

TEST(SlowQueryLogLineTest, RendersRequestKeySpansAndSteiner) {
  TraceContext ctx;
  ctx.set_request_id(7);
  ctx.set_query_key("q=\"hate speech\"|seeds=5");
  ctx.AddSpan(Stage::kCacheLookup, 10, 1000, 0);
  ctx.AddSpan(Stage::kSolve, 2000, 3'000'000, 1);
  steiner::SteinerStats stats;
  stats.nodes_settled = 123;
  ctx.AttachSteinerStats(stats);
  std::string line = SlowQueryLogLine(ctx, 310.5, 250.0);
  EXPECT_NE(line.find("\"slow_query\":{"), std::string::npos) << line;
  EXPECT_NE(line.find("\"request_id\":7"), std::string::npos) << line;
  // The key's quotes must be escaped (the line must stay one JSON doc).
  EXPECT_NE(line.find("q=\\\"hate speech\\\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"total_ms\":310.5"), std::string::npos) << line;
  EXPECT_NE(line.find("\"threshold_ms\":250"), std::string::npos) << line;
  EXPECT_NE(line.find("\"cache_lookup\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"solve\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"nodes_settled\":123"), std::string::npos) << line;
}

// ------------------------------------------------- prometheus primitives

TEST(PrometheusTest, SanitizeMetricName) {
  EXPECT_EQ(SanitizeMetricName("e2e_ms"), "e2e_ms");
  EXPECT_EQ(SanitizeMetricName("weird name-with.dots"),
            "weird_name_with_dots");
  EXPECT_EQ(SanitizeMetricName("9starts_with_digit"), "_9starts_with_digit");
  EXPECT_EQ(SanitizeMetricName(""), "_");
  EXPECT_EQ(SanitizeMetricName("a:b"), "a:b");  // colon is legal
}

TEST(PrometheusTest, FormatMetricValue) {
  EXPECT_EQ(FormatMetricValue(42.0), "42");
  EXPECT_EQ(FormatMetricValue(-3.0), "-3");
  EXPECT_EQ(FormatMetricValue(0.25), "0.25");
  EXPECT_EQ(FormatMetricValue(std::numeric_limits<double>::infinity()),
            "+Inf");
  EXPECT_EQ(FormatMetricValue(-std::numeric_limits<double>::infinity()),
            "-Inf");
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeWithInfEqualToCount) {
  Histogram h({0.0, 1.0, 10.0});
  h.Add(-0.5);  // underflow -> first bucket line
  h.Add(0.5);
  h.Add(5.0);
  h.Add(50.0);  // overflow -> only +Inf
  std::string out;
  AppendHistogram("lat_ms", h, &out);
  EXPECT_NE(out.find("# TYPE lat_ms histogram\n"), std::string::npos) << out;
  EXPECT_NE(out.find("lat_ms_bucket{le=\"0\"} 1\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("lat_ms_bucket{le=\"1\"} 2\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("lat_ms_bucket{le=\"10\"} 3\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("lat_ms_bucket{le=\"+Inf\"} 4\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("lat_ms_count 4\n"), std::string::npos) << out;
}

// --------------------------------------------------- live-server helpers

/// '+'-encodes spaces for query-string position (UrlDecode's inverse for
/// the characters the test queries contain).
std::string EncodeQueryValue(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == ' ') c = '+';
  }
  return out;
}

/// Extracts the first number following `"key":` in a JSON document.
double JsonNumber(const std::string& body, const std::string& key) {
  size_t pos = body.find("\"" + key + "\":");
  EXPECT_NE(pos, std::string::npos) << "missing " << key << " in " << body;
  if (pos == std::string::npos) return 0.0;
  return std::strtod(body.c_str() + pos + key.size() + 3, nullptr);
}

/// The full serving stack over the shared test workbench, listening on an
/// ephemeral loopback port.
class LiveStack {
 public:
  explicit LiveStack(ui::HttpServerOptions http_options = {}) {
    const eval::Workbench& wb = serve::SharedWorkbench();
    serve::ServeEngineOptions options;
    options.num_threads = 2;
    engine_ = std::make_unique<serve::ServeEngine>(serve::WorkbenchEpoch(wb),
                                                   options);
    service_ = std::make_unique<ui::RePagerService>(engine_.get());
    server_ = std::make_unique<ui::HttpServer>(
        [this](const ui::HttpRequest& request, ui::HttpServer::Done done) {
          service_->HandleAsync(request, std::move(done));
        },
        http_options);
    service_->AttachServer(server_.get());
    port_ = server_->Start(0).value();
  }
  ~LiveStack() { server_->Stop(); }

  int port() const { return port_; }
  serve::ServeEngine& engine() { return *engine_; }

  ui::ClientResponse Fetch(const std::string& path) {
    ui::HttpClient client;
    EXPECT_TRUE(client.Connect(port_).ok());
    auto r = client.Fetch("GET", path);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.value() : ui::ClientResponse{};
  }

 private:
  std::unique_ptr<serve::ServeEngine> engine_;
  std::unique_ptr<ui::RePagerService> service_;
  std::unique_ptr<ui::HttpServer> server_;
  int port_ = 0;
};

// ------------------------------------------------------- live-server tests

TEST(LiveTracingTest, DebugPathCoversEveryPipelineStage) {
  SetTracingEnabled(true);
  LiveStack stack;
  const auto& entry = serve::SharedWorkbench().bank().Get(0);
  std::string path = "/api/path?debug=1&q=" + EncodeQueryValue(entry.query);
  ui::ClientResponse r = stack.Fetch(path);
  ASSERT_EQ(r.status, 200) << r.body;
  ASSERT_NE(r.body.find("\"debug\":{"), std::string::npos) << r.body;
  for (Stage stage : kPipelineStages) {
    EXPECT_NE(r.body.find(std::string("\"") + StageName(stage) + "\":"),
              std::string::npos)
        << "missing stage " << StageName(stage);
  }
  double stage_total = JsonNumber(r.body, "stage_total_ms");
  double pipeline_total = JsonNumber(r.body, "pipeline_total_ms");
  if (kTracingCompiledIn) {
    // Spans must attribute real time and never exceed the pipeline wall
    // clock (small slack: the two totals come from two clock reads).
    EXPECT_GT(stage_total, 0.0);
    EXPECT_LE(stage_total, pipeline_total * 1.10 + 0.5);
    // The request-scoped trace rode along: serving-side spans + id.
    EXPECT_NE(r.body.find("\"trace\":{"), std::string::npos) << r.body;
    EXPECT_NE(r.body.find("\"cache_lookup\""), std::string::npos) << r.body;
    EXPECT_NE(r.body.find("\"batch_queue\""), std::string::npos) << r.body;
    EXPECT_NE(r.body.find("\"solve\""), std::string::npos) << r.body;
    EXPECT_GT(JsonNumber(r.body, "request_id"), 0.0);
  }

  // A cache hit keeps the original solve's attribution (stages are
  // cached with the result), and still carries this request's own trace.
  ui::ClientResponse cached = stack.Fetch(path);
  ASSERT_EQ(cached.status, 200);
  EXPECT_NE(cached.body.find("\"cache_hit\":true"), std::string::npos)
      << cached.body;
  if (kTracingCompiledIn) {
    EXPECT_NEAR(JsonNumber(cached.body, "stage_total_ms"), stage_total,
                1e-9);
  }

  // Without debug=1 there is no debug block.
  ui::ClientResponse plain =
      stack.Fetch("/api/path?q=" + EncodeQueryValue(entry.query));
  ASSERT_EQ(plain.status, 200);
  EXPECT_EQ(plain.body.find("\"debug\""), std::string::npos);
}

TEST(LiveTracingTest, StatsStagesSectionAttributesSolveTime) {
  SetTracingEnabled(true);
  LiveStack stack;
  const auto& entry = serve::SharedWorkbench().bank().Get(1);
  ASSERT_EQ(stack.Fetch("/api/path?q=" + EncodeQueryValue(entry.query))
                .status,
            200);
  ui::ClientResponse r = stack.Fetch("/api/stats");
  ASSERT_EQ(r.status, 200);
  ASSERT_NE(r.body.find("\"stages\":{"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"pipeline\":{"), std::string::npos);
  EXPECT_NE(r.body.find("\"attributed_fraction\":"), std::string::npos);
  if (kTracingCompiledIn) {
    // One computed request: every stage histogram saw one observation.
    EXPECT_NE(r.body.find("\"steiner\":{\"count\":1"), std::string::npos)
        << r.body;
    double fraction = JsonNumber(r.body, "attributed_fraction");
    EXPECT_GT(fraction, 0.0);
    EXPECT_LE(fraction, 1.1);
  }
}

TEST(LiveTracingTest, MetricsEndpointIsWellFormedExposition) {
  SetTracingEnabled(true);
  LiveStack stack;
  const auto& entry = serve::SharedWorkbench().bank().Get(2);
  ASSERT_EQ(stack.Fetch("/api/path?q=" + EncodeQueryValue(entry.query))
                .status,
            200);
  ui::ClientResponse r = stack.Fetch("/metrics");
  ASSERT_EQ(r.status, 200);
  EXPECT_NE(r.headers.at("content-type").find("text/plain"),
            std::string::npos);

  // Exposition conformance: every line is a comment or a sample; every
  // sample's family was announced by a # TYPE header; histogram buckets
  // are cumulative-monotone with +Inf == _count.
  std::regex type_re(R"(# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram))");
  std::regex sample_re(
      R"re(([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="([^"]*)"\})? (-?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?|\+Inf|-Inf|NaN))re");
  std::map<std::string, std::string> family_type;
  std::map<std::string, std::vector<double>> bucket_counts;
  std::map<std::string, double> inf_count, sample_count;
  size_t samples = 0;
  size_t pos = 0;
  while (pos < r.body.size()) {
    size_t eol = r.body.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "body must end in a newline";
    std::string line = r.body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    std::smatch m;
    if (line[0] == '#') {
      ASSERT_TRUE(std::regex_match(line, m, type_re)) << line;
      family_type[m[1]] = m[2];
      continue;
    }
    ASSERT_TRUE(std::regex_match(line, m, sample_re)) << line;
    ++samples;
    std::string name = m[1];
    double value = std::strtod(std::string(m[4]).c_str(), nullptr);
    std::string base = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      size_t at = name.rfind(suffix);
      if (at != std::string::npos && at == name.size() - strlen(suffix)) {
        base = name.substr(0, at);
      }
    }
    // Histogram series resolve their TYPE through the base name.
    ASSERT_TRUE(family_type.count(name) || family_type.count(base))
        << "sample before # TYPE: " << line;
    if (m[2].matched) {  // a _bucket line
      if (std::string(m[3]) == "+Inf") {
        inf_count[base] = std::strtod(std::string(m[4]).c_str(), nullptr);
      } else {
        bucket_counts[base].push_back(
            std::strtod(std::string(m[4]).c_str(), nullptr));
      }
    } else if (name.size() > 6 &&
               name.compare(name.size() - 6, 6, "_count") == 0 &&
               family_type.count(base) &&
               family_type[base] == "histogram") {
      sample_count[base] = value;
    }
  }
  EXPECT_GT(samples, 20u);
  // The stage histograms and the serving instruments must be present.
  EXPECT_TRUE(family_type.count("rpg_e2e_ms"));
  EXPECT_TRUE(family_type.count("rpg_requests_total"));
  EXPECT_TRUE(family_type.count("rpg_stage_steiner_ms"));
  EXPECT_TRUE(family_type.count("rpg_pipeline_total_ms"));
  EXPECT_TRUE(family_type.count("rpg_http_requests_handled"));
  ASSERT_FALSE(bucket_counts.empty());
  for (const auto& [base, counts] : bucket_counts) {
    for (size_t i = 1; i < counts.size(); ++i) {
      EXPECT_LE(counts[i - 1], counts[i]) << base << " bucket " << i;
    }
    ASSERT_TRUE(inf_count.count(base)) << base << " missing +Inf";
    if (!counts.empty()) {
      EXPECT_LE(counts.back(), inf_count[base]) << base;
    }
    ASSERT_TRUE(sample_count.count(base)) << base << " missing _count";
    EXPECT_EQ(inf_count[base], sample_count[base]) << base;
  }
}

TEST(LiveTracingTest, ConcurrentScrapeWhileServingStaysConsistent) {
  SetTracingEnabled(true);
  LiveStack stack;
  const auto& entry = serve::SharedWorkbench().bank().Get(3);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Scrapers: hammer /metrics and /api/stats while solves run.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      ui::HttpClient client;
      if (!client.Connect(stack.port()).ok()) {
        ++failures;
        return;
      }
      while (!stop.load()) {
        for (const char* path : {"/metrics", "/api/stats"}) {
          auto r = client.Fetch("GET", path);
          if (!r.ok() || r->status != 200) ++failures;
        }
      }
    });
  }
  // Solvers: distinct seeds values defeat the cache so spans are being
  // written concurrently with every scrape.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      ui::HttpClient client;
      if (!client.Connect(stack.port()).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 6; ++i) {
        std::string path = "/api/path?debug=1&q=" +
                           EncodeQueryValue(entry.query) +
                           "&seeds=" + std::to_string(4 + t * 6 + i);
        auto r = client.Fetch("GET", path);
        if (!r.ok() || r->status != 200) ++failures;
      }
    });
  }
  threads[2].join();
  threads[3].join();
  stop.store(true);
  threads[0].join();
  threads[1].join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(LiveTracingTest, SlowQueryThresholdEmitsOneStructuredLine) {
  if (!kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  SetTracingEnabled(true);
  // A plain handler server with a deliberate 20 ms stall: deterministic
  // against the 1 ms threshold, no workbench timing dependence. The
  // handler records a span through the request's trace exactly like the
  // serve layers do.
  ui::HttpServerOptions options;
  options.slow_query_threshold = std::chrono::milliseconds(1);
  ui::HttpServer server(
      [](const ui::HttpRequest& request, ui::HttpServer::Done done) {
        if (request.trace) {
          uint64_t t0 = request.trace->NowNs();
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          request.trace->AddSpan(Stage::kSolve, t0,
                                 request.trace->NowNs() - t0, 1);
          request.trace->set_query_key("slow-test-key");
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        done({200, "text/plain", "ok"});
      },
      options);
  int port = server.Start(0).value();

  // Capture stderr around the fetch: the slow-query line is written
  // before the response completes, so it is fully flushed by the time
  // the client has the body.
  int saved = dup(STDERR_FILENO);
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  dup2(fds[1], STDERR_FILENO);
  close(fds[1]);

  ui::HttpClient client;
  ASSERT_TRUE(client.Connect(port).ok());
  auto r = client.Fetch("GET", "/slow");
  dup2(saved, STDERR_FILENO);
  close(saved);
  std::string captured;
  char buf[4096];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) captured.append(buf, n);
  close(fds[0]);
  server.Stop();

  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->status, 200);
  EXPECT_NE(captured.find("\"slow_query\":{"), std::string::npos)
      << captured;
  EXPECT_NE(captured.find("\"query_key\":\"slow-test-key\""),
            std::string::npos)
      << captured;
  EXPECT_NE(captured.find("\"solve\""), std::string::npos) << captured;
  EXPECT_NE(captured.find("\"threshold_ms\":1"), std::string::npos)
      << captured;
  double total = 0;
  size_t at = captured.find("\"total_ms\":");
  ASSERT_NE(at, std::string::npos);
  total = std::strtod(captured.c_str() + at + 11, nullptr);
  EXPECT_GE(total, 20.0);
}

#if !defined(RPG_TRACING_DISABLED)
TEST(RuntimeToggleTest, DisabledTracingRecordsNoSpans) {
  SetTracingEnabled(false);
  const eval::Workbench& wb = serve::SharedWorkbench();
  const auto& entry = wb.bank().Get(4);
  auto result = wb.repager().Generate(entry.query, {});
  SetTracingEnabled(true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stages.count, 0u);

  auto traced = wb.repager().Generate(entry.query, {});
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(traced->stages.count, kNumPipelineStages);
}
#endif

}  // namespace
}  // namespace rpg::obs
