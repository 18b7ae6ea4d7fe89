/// \file
/// Fuzz target: the /api/path query path end to end, minus sockets.
/// Arbitrary bytes are framed through FrameOneRequest (the reactor's
/// request seam) and, when they frame a complete request, routed through
/// a real RePagerService over a small static workbench — so parameter
/// parsing (ParseBoundedInt), canonicalization, the cache, and the JSON
/// response renderer all run against adversarial request targets. The
/// response body must always be a structurally well-formed JSON document
/// (the round-trip the embedded UI depends on).
///
/// Heavier than the other harnesses (one-time workbench build, real
/// solves on cache misses); run it with fewer iterations.
///
/// Build: -DRPG_BUILD_FUZZERS=ON with clang (libFuzzer); the same body
/// also runs libFuzzer-free inside fuzz_smoke.cc (tier-1 ctest).

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>

#include "common/logging.h"
#include "eval/workbench.h"
#include "serve/epoch.h"
#include "serve/serve_engine.h"
#include "ui/http_server.h"
#include "ui/repager_service.h"

#ifndef RPG_FUZZ_ENTRY
#define RPG_FUZZ_ENTRY LLVMFuzzerTestOneInput
#endif

namespace rpg::fuzzing::api_path {

/// One process-wide serving stack over a tiny corpus (built on first
/// use, intentionally leaked — libFuzzer calls the entry millions of
/// times).
inline ui::RePagerService& Service() {
  static ui::RePagerService* service = [] {
    eval::WorkbenchOptions options;
    options.corpus.hierarchy.areas_per_domain = 2;
    options.corpus.hierarchy.topics_per_area = 2;
    options.corpus.papers_per_topic = 30;
    options.corpus.papers_per_area = 10;
    options.corpus.papers_per_domain = 5;
    options.corpus.num_surveys = 20;
    options.corpus.seed = 77;
    auto* wb = eval::Workbench::Create(options).value().release();
    serve::ServeEngineOptions engine_options;
    engine_options.num_threads = 1;
    auto* engine = new serve::ServeEngine(
        serve::Epoch::Create(&wb->repager(), &wb->titles(), &wb->years(),
                             nullptr, {.id = 1, .source = "in-process"}),
        engine_options);
    return new ui::RePagerService(engine);
  }();
  return *service;
}

/// Structural JSON well-formedness: strings (with escapes) scan cleanly
/// and braces/brackets balance outside them. Not a full parser — enough
/// to catch an unescaped quote or truncated document from the renderer.
inline bool JsonIsBalanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

inline void CheckOne(const uint8_t* data, size_t size) {
  const std::string in(reinterpret_cast<const char*>(data), size);

  // The parameter parser on the raw bytes, against both bound sets the
  // route layer uses.
  int value = 0;
  (void)ui::ParseBoundedInt(in, 1, 1000, &value);
  (void)ui::ParseBoundedInt(in, 1000, 2100, &value);

  ui::FrameResult framed =
      ui::FrameOneRequest(in, /*peer_eof=*/true, ui::FramingLimits{});
  if (framed.verdict != ui::FrameResult::Verdict::kRequest) return;

  // Cheap routes and cache hits complete inline; a miss completes on the
  // solve-queue worker that solved it, so wait for the callback either
  // way. The callback owns the promise: it may still be inside set_value
  // when the waiter wakes up.
  auto handled = std::make_shared<std::promise<ui::HttpResponse>>();
  std::future<ui::HttpResponse> handled_future = handled->get_future();
  Service().HandleAsync(framed.request, [handled](ui::HttpResponse r) {
    handled->set_value(std::move(r));
  });
  ui::HttpResponse response = handled_future.get();
  RPG_CHECK(response.status == 200 || response.status == 400 ||
            response.status == 404 || response.status == 405 ||
            response.status == 429 || response.status == 503);
  RPG_CHECK(!response.body.empty());
  if (response.content_type == "application/json") {
    RPG_CHECK(JsonIsBalanced(response.body));
  }
}

}  // namespace rpg::fuzzing::api_path

extern "C" int RPG_FUZZ_ENTRY(const uint8_t* data, size_t size) {
  rpg::fuzzing::api_path::CheckOne(data, size);
  return 0;
}
