#ifndef RPG_UI_REPAGER_SERVICE_H_
#define RPG_UI_REPAGER_SERVICE_H_

#include <string>

#include "serve/serve_engine.h"
#include "ui/http_server.h"

namespace rpg::ui {

/// Strict bounded parse for numeric query parameters: ASCII digits only
/// (no sign, whitespace, or trailing garbage) and the value must land in
/// [min, max]. Exposed for unit tests and the fuzz harnesses.
bool ParseBoundedInt(const std::string& s, int min, int max, int* out);

/// The RePaGer web application backend (§V). A thin route layer: every
/// query is served by serve::ServeEngine (sharded result cache ->
/// single-flight -> bounded solve queue; see docs/serving.md), so
/// repeated queries come back from the cache in microseconds and
/// concurrent identical misses share one solve. Routes:
///
///   GET  /                      the single-page UI (embedded HTML)
///   GET  /api/path?q=<query>[&seeds=N][&year=Y][&debug=1]
///                               reading path as JSON: nodes (title, year,
///                               importance), reading-order edges, the
///                               flattened navigation-bar order, the
///                               seed/expanded marking used by the panel's
///                               node-weight legend, and cache_hit.
///                               debug=1 appends a "debug" object with the
///                               per-stage latency breakdown, Steiner work
///                               counters, and the raw request-trace spans
///                               (docs/observability.md)
///   GET  /api/stats             live serving metrics (http reactor
///                               gauges, cache hit/miss incl. negative
///                               entries, solve-queue counts, latency
///                               percentiles, per-stage attribution) as
///                               JSON
///   GET  /metrics               the same instruments in Prometheus text
///                               exposition format (version 0.0.4), for
///                               scraping (includes rpg_epoch_id,
///                               rpg_epoch_flips_total,
///                               rpg_epoch_last_reload_unix_seconds)
///   POST /api/cache/clear       drops the query cache; returns the
///                               number of entries dropped
///   POST /api/admin/reload      body: a snapshot path. Loads + fully
///                               checksum-audits the snapshot, then
///                               flips the serving epoch
///                               (ServeEngine::SwapEpoch). Fail-closed:
///                               any load/verify error returns 400/404
///                               naming the offending layer and leaves
///                               the serving epoch untouched. In-flight
///                               requests finish on the old epoch.
///
/// HandleAsync is the one entry point: cheap routes complete inline on
/// the poller thread; /api/path hands compute to
/// ServeEngine::GenerateAsync and completes from the solve-queue worker
/// that solved the query, so poller threads never block on a solve.
class RePagerService {
 public:
  /// Every response renders from its own epoch's substrate
  /// (titles/years/repager ride on the ServeResponse's epoch handle), so
  /// the service needs nothing beyond the engine and reloads require no
  /// re-wiring here. The engine must outlive the service.
  explicit RePagerService(serve::ServeEngine* engine);

  /// Optional: lets /api/stats report the HTTP reactor's own gauges
  /// (open connections, accepted, protocol errors). The server must
  /// outlive the service's last HandleAsync call. Typically called right
  /// after constructing the HttpServer whose handler is this service.
  void AttachServer(const HttpServer* server) { server_ = server; }

  /// The asynchronous HttpServer handler: `done` is invoked exactly
  /// once, inline for cheap routes, later (from the compute side) for
  /// /api/path misses.
  void HandleAsync(const HttpRequest& request, HttpServer::Done done) const;

 private:
  /// Renders one served response as the /api/path JSON document. Static
  /// on purpose: the GenerateAsync continuation must not capture the
  /// service (`this`) — a compute finishing after the service was
  /// destroyed (server stopped mid-flight) may still run this. The
  /// response's own epoch handle supplies (and keeps alive) the
  /// substrate it renders from. `debug` appends the "debug" object
  /// (stage breakdown + trace spans); `trace` may be null even in debug
  /// mode (tracing disabled) — the result-attached stage spans still
  /// render.
  static std::string RenderPathJson(const std::string& query,
                                    const serve::ServeResponse& response,
                                    bool debug,
                                    const obs::TraceContext* trace);

  /// Maps a pipeline error to the /api/path error response.
  static HttpResponse ErrorResponse(const Status& status);

  /// POST /api/admin/reload: body is a snapshot path. Loads and fully
  /// verifies it, then SwapEpoch. The load and the full checksum audit
  /// run inline and block the calling poller thread for their whole
  /// duration (a full-corpus reload is far from instant: the repo
  /// benchmark's reload_p50_ms measures it); connections on other
  /// pollers keep being served meanwhile. Moving the load off the
  /// reactor is ROADMAP item 5.
  HttpResponse HandleReload(const HttpRequest& request) const;

  /// The /api/stats document: engine stats + the reactor's http section.
  std::string StatsJson() const;

  /// The GET /metrics body: engine instruments (prefix "rpg_") plus the
  /// reactor's counters/gauges (prefix "rpg_http_") when a server is
  /// attached.
  std::string MetricsText() const;

  serve::ServeEngine* engine_;
  const HttpServer* server_ = nullptr;
};

/// The embedded single-page UI: input panel, navigation bar, and an SVG
/// rendering of the generated reading path (panels a-e of Fig. 7).
const char* RePagerIndexHtml();

}  // namespace rpg::ui

#endif  // RPG_UI_REPAGER_SERVICE_H_
