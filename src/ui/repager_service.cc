#include "ui/repager_service.h"

#include <cstdlib>
#include <unordered_set>
#include <vector>

#include "common/json_writer.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "serve/epoch.h"

namespace rpg::ui {

/// Strict bounded parse for numeric query parameters: ASCII digits
/// only (no sign, whitespace, or trailing garbage), value within
/// [min, max]. The old atoi turned "abc" into 0 (silently falling back
/// to defaults) and accepted negatives and absurd magnitudes.
bool ParseBoundedInt(const std::string& s, int min, int max, int* out) {
  if (s.empty() || s.size() > 9) return false;
  int value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + (c - '0');
  }
  if (value < min || value > max) return false;
  *out = value;
  return true;
}

namespace {

/// Parameter bounds for /api/path. Seeds beyond 1000 would dwarf the
/// corpus; years outside [1000, 2100] cannot match any paper (years are
/// uint16 publication years).
constexpr int kMinSeeds = 1, kMaxSeeds = 1000;
constexpr int kMinYear = 1000, kMaxYear = 2100;

HttpResponse BadParameter(const std::string& name, const std::string& value) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error").String("invalid " + name + " parameter: \"" + value + "\"");
  w.EndObject();
  return {400, "application/json", w.str()};
}

}  // namespace

RePagerService::RePagerService(serve::ServeEngine* engine)
    : engine_(engine) {
  RPG_CHECK(engine_ != nullptr);
}

std::string RePagerService::RenderPathJson(const std::string& query,
                                           const serve::ServeResponse& response,
                                           bool debug,
                                           const obs::TraceContext* trace) {
  // Render from the substrate of the epoch this response was served on:
  // the response's handle keeps it alive through rendering, and after a
  // flip an in-flight old-epoch response must render with ITS titles /
  // years / importances, not the new epoch's.
  const serve::Epoch& epoch = *response.epoch;
  const std::vector<std::string>& titles = epoch.titles();
  const std::vector<uint16_t>& years = epoch.years();
  const core::RePagerResult& result = *response.result;
  std::unordered_set<graph::PaperId> seeds(result.initial_seeds.begin(),
                                           result.initial_seeds.end());
  JsonWriter w;
  w.BeginObject();
  w.Key("query").String(query);
  w.Key("subgraph_nodes").UInt(result.subgraph_nodes);
  w.Key("subgraph_edges").UInt(result.subgraph_edges);
  // Original pipeline compute time (a property of the cached result) vs
  // what this request actually waited inside the serving layer.
  w.Key("seconds").Double(result.total_seconds);
  w.Key("serve_seconds").Double(response.e2e_seconds);
  w.Key("cache_hit").Bool(response.cache_hit);
  w.Key("nodes").BeginArray();
  for (graph::PaperId p : result.path.nodes()) {
    w.BeginObject();
    w.Key("id").UInt(p);
    w.Key("title").String(titles[p]);
    w.Key("year").Int(years[p]);
    // Node-weight legend: a * pgscore + b * venue, higher = more
    // important in the whole reading path (§V panel e).
    w.Key("importance").Double(epoch.repager().Importance(p));
    // Green vs gray marking of Fig. 9: was the paper in the engine's
    // initial top-K, or surfaced by citation analysis?
    w.Key("from_engine").Bool(seeds.contains(p));
    w.EndObject();
  }
  w.EndArray();
  w.Key("edges").BeginArray();
  for (const auto& [first, next] : result.path.edges()) {
    w.BeginObject();
    w.Key("read_first").UInt(first);
    w.Key("read_next").UInt(next);
    w.EndObject();
  }
  w.EndArray();
  // Navigation bar (§V panel b): the flattened reading order.
  w.Key("reading_order").BeginArray();
  for (graph::PaperId p : result.path.FlattenedOrder(years)) w.UInt(p);
  w.EndArray();
  if (debug) {
    // Stage breakdown of the result's own solve (cached results keep the
    // attribution of their original computation) plus, when this request
    // carried a trace, the raw request-scoped spans.
    w.Key("debug").BeginObject();
    w.Key("stages").BeginObject();
    for (obs::Stage stage : obs::kPipelineStages) {
      w.Key(obs::StageName(stage)).Double(result.stages.StageMs(stage));
    }
    w.EndObject();
    w.Key("stage_total_ms").Double(result.stages.TotalMs());
    w.Key("pipeline_total_ms").Double(result.total_seconds * 1e3);
    w.Key("steiner").BeginObject();
    w.Key("nodes_settled").UInt(result.steiner_stats.nodes_settled);
    w.Key("heap_pushes").UInt(result.steiner_stats.heap_pushes);
    w.Key("closure_edges").UInt(result.steiner_stats.closure_edges);
    w.Key("dijkstra_runs").UInt(result.steiner_stats.dijkstra_runs);
    w.Key("closure_seconds").Double(result.steiner_stats.closure_seconds);
    w.EndObject();
    if (trace != nullptr) {
      w.Key("trace").BeginObject();
      w.Key("request_id").UInt(trace->request_id());
      w.Key("query_key").String(trace->query_key());
      w.Key("spans");
      obs::AppendSpansJson(trace->spans(), &w);
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

HttpResponse RePagerService::ErrorResponse(const Status& status) {
  JsonWriter w;
  w.BeginObject();
  w.Key("error").String(status.ToString());
  w.EndObject();
  // Overload shed (solve queue full) is the retryable case: 429 with
  // the queue's measured drain time as the Retry-After hint (1 when
  // the status carries none). A request expired by the queue deadline
  // is 503 — the work was abandoned, not refused — with the same hint.
  if (status.IsUnavailable() || status.IsDeadlineExceeded()) {
    HttpResponse response{status.IsUnavailable() ? 429 : 503,
                          "application/json", w.str()};
    int retry_after = status.retry_after_seconds();
    response.headers["Retry-After"] =
        std::to_string(retry_after > 0 ? retry_after : 1);
    return response;
  }
  return {status.IsInvalidArgument() ? 400 : 404, "application/json",
          w.str()};
}

HttpResponse RePagerService::HandleReload(const HttpRequest& request) const {
  const std::string path(Trim(request.body));
  if (path.empty()) {
    return {400, "application/json",
            "{\"error\":\"reload body must be a snapshot path\"}"};
  }
  const uint64_t next_id = engine_->CurrentEpoch()->id() + 1;
  auto epoch_or = serve::LoadEpochFromSnapshot(path, next_id);
  if (!epoch_or.ok()) {
    // Fail-closed: nothing was swapped; the serving epoch is untouched.
    // Corrupt sections surface as InvalidArgument naming the layer
    // (snapshot format validation ladder) -> 400; a missing/unreadable
    // file -> 404; anything else is a server-side 500.
    const Status& status = epoch_or.status();
    JsonWriter w;
    w.BeginObject();
    w.Key("reloaded").Bool(false);
    w.Key("error").String(status.ToString());
    w.EndObject();
    int code = status.IsInvalidArgument() ? 400
               : (status.IsNotFound() || status.IsIoError()) ? 404
                                                             : 500;
    return {code, "application/json", w.str()};
  }
  serve::EpochHandle epoch = std::move(epoch_or).value();
  engine_->SwapEpoch(epoch);
  JsonWriter w;
  w.BeginObject();
  w.Key("reloaded").Bool(true);
  w.Key("epoch").UInt(epoch->id());
  w.Key("source").String(epoch->info().source);
  w.Key("num_papers").UInt(epoch->info().num_papers);
  w.Key("num_edges").UInt(epoch->info().num_edges);
  w.Key("load_seconds").Double(epoch->info().load_seconds);
  w.EndObject();
  return {200, "application/json", w.str()};
}

std::string RePagerService::StatsJson() const {
  std::string engine_json = engine_->StatsJson();
  if (server_ == nullptr) return engine_json;
  HttpServerStats http = server_->Stats();
  JsonWriter w;
  w.BeginObject();
  w.Key("http").BeginObject();
  w.Key("open_connections").UInt(http.open_connections);
  w.Key("max_connections").UInt(http.max_connections);
  w.Key("connections_accepted").UInt(http.connections_accepted);
  w.Key("requests_handled").UInt(http.requests_handled);
  w.Key("responses_sent").UInt(http.responses_sent);
  w.Key("protocol_errors").UInt(http.protocol_errors);
  w.Key("connections_shed").UInt(http.connections_shed);
  w.Key("idle_closes").UInt(http.idle_closes);
  w.Key("timeout_closes").UInt(http.timeout_closes);
  w.Key("deadline_closes").UInt(http.deadline_closes);
  w.Key("per_ip_shed").UInt(http.per_ip_shed);
  w.EndObject();
  w.EndObject();
  // Splice the engine's own {"cache":...,"batcher":...,"metrics":...}
  // object after the http section; both are non-empty JSON objects.
  std::string merged = w.str();
  merged.back() = ',';
  merged.append(engine_json, 1, std::string::npos);
  return merged;
}

std::string RePagerService::MetricsText() const {
  std::string out = engine_->metrics().ToPrometheus("rpg");
  if (server_ == nullptr) return out;
  // The reactor's counters live in a plain struct, not the registry;
  // render them with the same exposition helpers under rpg_http_.
  HttpServerStats http = server_->Stats();
  obs::AppendGauge("rpg_http_open_connections",
                   static_cast<double>(http.open_connections), &out);
  obs::AppendGauge("rpg_http_max_connections",
                   static_cast<double>(http.max_connections), &out);
  obs::AppendCounter("rpg_http_connections_accepted",
                     http.connections_accepted, &out);
  obs::AppendCounter("rpg_http_requests_handled", http.requests_handled,
                     &out);
  obs::AppendCounter("rpg_http_responses_sent", http.responses_sent, &out);
  obs::AppendCounter("rpg_http_protocol_errors", http.protocol_errors, &out);
  obs::AppendCounter("rpg_http_connections_shed", http.connections_shed,
                     &out);
  obs::AppendCounter("rpg_http_idle_closes", http.idle_closes, &out);
  obs::AppendCounter("rpg_http_timeout_closes", http.timeout_closes, &out);
  obs::AppendCounter("rpg_http_deadline_closes", http.deadline_closes, &out);
  obs::AppendCounter("rpg_http_per_ip_shed", http.per_ip_shed, &out);
  return out;
}

void RePagerService::HandleAsync(const HttpRequest& request,
                                 HttpServer::Done done) const {
  if (request.method == "POST") {
    if (request.path == "/api/cache/clear") {
      size_t dropped = engine_->ClearCache();
      JsonWriter w;
      w.BeginObject();
      w.Key("cleared").Bool(true);
      w.Key("entries_dropped").UInt(dropped);
      w.EndObject();
      done({200, "application/json", w.str()});
      return;
    }
    if (request.path == "/api/admin/reload") {
      done(HandleReload(request));
      return;
    }
    done({request.path == "/api/path" || request.path == "/" ? 405 : 404,
          "text/plain",
          "POST only supported on /api/cache/clear and /api/admin/reload"});
    return;
  }
  if (request.method != "GET") {
    done({405, "text/plain", "only GET and POST are supported"});
    return;
  }
  if (request.path == "/" || request.path == "/index.html") {
    done({200, "text/html; charset=utf-8", RePagerIndexHtml()});
    return;
  }
  if (request.path == "/api/stats") {
    done({200, "application/json", StatsJson()});
    return;
  }
  if (request.path == "/metrics") {
    done({200, "text/plain; version=0.0.4; charset=utf-8", MetricsText()});
    return;
  }
  if (request.path == "/api/path") {
    auto q = request.query.find("q");
    if (q == request.query.end() || q->second.empty()) {
      done({400, "application/json",
            "{\"error\":\"missing query parameter q\"}"});
      return;
    }
    // Absent parameters mean pipeline defaults (0); present ones must
    // parse strictly and land in range, or the request is a 400 before
    // any engine state is touched.
    int num_seeds = 0, year = 0;
    if (auto it = request.query.find("seeds"); it != request.query.end()) {
      if (!ParseBoundedInt(it->second, kMinSeeds, kMaxSeeds, &num_seeds)) {
        done(BadParameter("seeds", it->second));
        return;
      }
    }
    if (auto it = request.query.find("year"); it != request.query.end()) {
      if (!ParseBoundedInt(it->second, kMinYear, kMaxYear, &year)) {
        done(BadParameter("year", it->second));
        return;
      }
    }
    bool debug = false;
    if (auto it = request.query.find("debug"); it != request.query.end()) {
      debug = it->second == "1" || it->second == "true";
    }
    // The compute handoff: cache hits complete inline (microseconds);
    // misses complete from the solve-queue worker. Either way
    // the calling poller thread returns to its event loop immediately.
    // The continuation deliberately does NOT capture `this`: a compute
    // finishing after server.Stop() may outlive the service object, so
    // it may only touch the response's own epoch (which it keeps alive)
    // and the post-Stop-safe `done`. The trace shared_ptr rides along;
    // by completion time every serving-layer span is in it.
    engine_->GenerateAsync(
        q->second, num_seeds, year,
        [query = q->second, debug, trace = request.trace,
         done = std::move(done)](Result<serve::ServeResponse> response) {
          if (!response.ok()) {
            done(ErrorResponse(response.status()));
            return;
          }
          done({200, "application/json",
                RenderPathJson(query, response.value(), debug,
                               trace.get())});
        },
        request.trace);
    return;
  }
  done({404, "text/plain", "not found"});
}

const char* RePagerIndexHtml() {
  return R"HTML(<!doctype html>
<html><head><meta charset="utf-8"><title>RePaGer - Reading Path Generation</title>
<style>
 body { font-family: sans-serif; margin: 2em; max-width: 70em; }
 #q { width: 30em; padding: .4em; }
 .nav li.seed { color: #444; }
 .nav li.added { color: #1a7f37; font-weight: bold; }
 #meta { color: #666; margin: .6em 0; }
</style></head>
<body>
<h1>RePaGer</h1>
<p>Enter a research topic to generate a reading path (papers marked in
green were surfaced by citation analysis, not by keyword search).</p>
<input id="q" placeholder="e.g. pretrained language model">
<button onclick="go()">Generate</button>
<div id="meta"></div>
<ol id="list" class="nav"></ol>
<script>
async function go() {
  const q = document.getElementById('q').value;
  if (!q) return;
  const r = await fetch('/api/path?q=' + encodeURIComponent(q));
  const data = await r.json();
  const meta = document.getElementById('meta');
  const list = document.getElementById('list');
  list.innerHTML = '';
  if (data.error) { meta.textContent = data.error; return; }
  meta.textContent = data.nodes.length + ' papers, sub-graph ' +
      data.subgraph_nodes + ' nodes / ' + data.subgraph_edges +
      ' edges, ' + data.seconds.toFixed(2) + 's' +
      (data.cache_hit ? ' (cached)' : '');
  const byId = {};
  data.nodes.forEach(n => byId[n.id] = n);
  data.reading_order.forEach(id => {
    const n = byId[id];
    const li = document.createElement('li');
    li.className = n.from_engine ? 'seed' : 'added';
    li.textContent = n.title + ' (' + n.year + ')';
    list.appendChild(li);
  });
}
</script>
</body></html>
)HTML";
}

}  // namespace rpg::ui
