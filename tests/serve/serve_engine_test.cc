#include "serve/serve_engine.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <thread>
#include <vector>

#include "serve_test_util.h"
#include "ui/http_client.h"
#include "ui/http_server.h"
#include "ui/repager_service.h"

namespace rpg::serve {
namespace {

/// Per-field bit-identity against a serial RePaGer::Generate run.
void ExpectIdentical(const core::RePagerResult& served,
                     const core::RePagerResult& serial) {
  EXPECT_EQ(served.ranked, serial.ranked);
  EXPECT_EQ(served.path.nodes(), serial.path.nodes());
  EXPECT_EQ(served.path.edges(), serial.path.edges());
  EXPECT_EQ(served.initial_seeds, serial.initial_seeds);
  EXPECT_EQ(served.terminals, serial.terminals);
  EXPECT_EQ(served.subgraph_nodes, serial.subgraph_nodes);
  EXPECT_EQ(served.subgraph_edges, serial.subgraph_edges);
}

core::RePagerResult SerialReference(const std::string& query, int num_seeds,
                                    int year_cutoff) {
  core::RePagerOptions options;
  if (num_seeds > 0) options.num_initial_seeds = num_seeds;
  if (year_cutoff > 0) options.year_cutoff = year_cutoff;
  auto r = SharedWorkbench().repager().Generate(query, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(ServeEngineTest, MissThenHitIdenticalToSerial) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(WorkbenchEpoch(SharedWorkbench()), options);
  const auto& entry = SharedWorkbench().bank().Get(0);

  auto first = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(entry.query, 0, entry.year, done);
  }).get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  auto second = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(entry.query, 0, entry.year, done);
  }).get();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->result.get(), first->result.get());  // shared entry

  core::RePagerResult serial = SerialReference(entry.query, 0, entry.year);
  ExpectIdentical(*first->result, serial);

  QueryCacheStats stats = engine.cache().Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ServeEngineTest, CanonicalKeyUnifiesEquivalentQueries) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(WorkbenchEpoch(SharedWorkbench()), options);
  const auto& entry = SharedWorkbench().bank().Get(0);

  std::string shouted = entry.query;
  for (char& c : shouted) c = static_cast<char>(std::toupper(c));
  auto first = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(entry.query, 0, entry.year, done);
  }).get();
  ASSERT_TRUE(first.ok());
  auto second = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync("  " + shouted + "  ", 0, entry.year, done);
  }).get();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  // The normalization is sound: recomputing the shouted variant serially
  // yields the same result the cache returned.
  ExpectIdentical(*second->result, SerialReference(shouted, 0, entry.year));
}

TEST(ServeEngineTest, ErrorsPropagateAndAreNegativelyCached) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(WorkbenchEpoch(SharedWorkbench()), options);
  auto r = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync("zzzz qqqq wwww", 0, 0, done);
  }).get();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(engine.metrics().ToJson().find("\"errors_total\":0"),
            std::string::npos);  // errors_total incremented
  // The deterministic failure is remembered as a negative entry...
  QueryCacheStats stats = engine.cache().Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.negative_entries, 1u);
  EXPECT_EQ(stats.negative_insertions, 1u);
  // ...and an equivalent query (same canonical key) is answered from it
  // with the same status, without touching the pipeline again.
  auto again = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync("  ZZZZ qqqq   wwww ", 0, 0, done);
  }).get();
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status(), r.status());
  EXPECT_EQ(engine.cache().Stats().negative_hits, 1u);
  std::string json = engine.StatsJson();
  EXPECT_NE(json.find("\"requests\":1"), std::string::npos)  // queue
      << json;
  EXPECT_NE(json.find("\"negative_hits\":1"), std::string::npos);
}

TEST(ServeEngineTest, GenerateAsyncDeliversIdenticalResult) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(WorkbenchEpoch(SharedWorkbench()), options);
  const auto& entry = SharedWorkbench().bank().Get(2);

  auto cold = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(entry.query, 0, entry.year, done);
  }).get();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->cache_hit);
  ExpectIdentical(*cold->result,
                  SerialReference(entry.query, 0, entry.year));

  // Warm call completes inline (cache hit) before GenerateAsync returns.
  bool hit_inline = false;
  engine.GenerateAsync(entry.query, 0, entry.year,
                       [&](Result<ServeResponse> r) {
                         hit_inline = r.ok() && r->cache_hit;
                       });
  EXPECT_TRUE(hit_inline);
}

TEST(ServeEngineTest, DisabledCacheAlwaysComputes) {
  ServeEngineOptions options;
  options.num_threads = 2;
  options.enable_cache = false;
  ServeEngine engine(WorkbenchEpoch(SharedWorkbench()), options);
  const auto& entry = SharedWorkbench().bank().Get(0);
  auto first = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(entry.query, 0, entry.year, done);
  }).get();
  auto second = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(entry.query, 0, entry.year, done);
  }).get();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->cache_hit);
  EXPECT_EQ(engine.cache().Stats().entries, 0u);
  ExpectIdentical(*second->result, *first->result);
}

TEST(ServeEngineTest, ConcurrentIdenticalRequestsComputeOnce) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(WorkbenchEpoch(SharedWorkbench()), options);
  const auto& entry = SharedWorkbench().bank().Get(1);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto r = AsFuture<Result<ServeResponse>>([&](auto done) {
        engine.GenerateAsync(entry.query, 0, entry.year, done);
      }).get();
      if (!r.ok()) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Single-flight: at most one computation ran (insertions == 1); the
  // other requests were cache hits or coalesced onto the flight.
  QueryCacheStats stats = engine.cache().Stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(engine.ClearCache(), 1u);
}

TEST(ServeEngineTest, StatsJsonIsLive) {
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(WorkbenchEpoch(SharedWorkbench()), options);
  const auto& entry = SharedWorkbench().bank().Get(0);
  AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(entry.query, 0, entry.year, done);
  }).get();
  AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(entry.query, 0, entry.year, done);
  }).get();
  std::string json = engine.StatsJson();
  EXPECT_NE(json.find("\"requests_total\":2"), std::string::npos);
  EXPECT_NE(json.find("\"hits\":1"), std::string::npos);
  EXPECT_NE(json.find("\"batches\":1"), std::string::npos);
  EXPECT_NE(json.find("\"e2e_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit_ms\":"), std::string::npos);
}

TEST(ServeEngineTest, OverloadShedsWith429AndRetryAfter) {
  const eval::Workbench& wb = SharedWorkbench();
  // A deliberately tiny admission queue: one solve at a time, one
  // waiter; the rest of a burst must shed.
  ServeEngineOptions options;
  options.num_threads = 1;
  options.queue.max_queue_depth = 1;
  ServeEngine engine(WorkbenchEpoch(wb), options);
  ui::RePagerService service(&engine);
  const auto& entry = wb.bank().Get(0);

  // Distinct `seeds` values make distinct canonical keys, so nothing
  // coalesces or caches: every request really reaches the solve queue.
  constexpr int kBurst = 8;
  std::mutex mu;
  std::vector<ui::HttpResponse> responses;
  for (int i = 0; i < kBurst; ++i) {
    ui::HttpRequest request{"GET",
                            "/api/path",
                            {{"q", entry.query},
                             {"seeds", std::to_string(5 + i)},
                             {"year", std::to_string(entry.year)}}};
    service.HandleAsync(request, [&](ui::HttpResponse response) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(std::move(response));
    });
  }
  for (int i = 0; i < 1000; ++i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (responses.size() == kBurst) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  int ok = 0, shed = 0;
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(responses.size(), static_cast<size_t>(kBurst));
  for (const ui::HttpResponse& response : responses) {
    if (response.status == 200) {
      ++ok;
      continue;
    }
    // The shed path end to end: typed Unavailable -> 429 + Retry-After.
    // The hint is the queue's measured drain time, clamped to [1, 30];
    // with a single-entry queue on a fast corpus it resolves to 1, but
    // the contract is the clamp, not the constant.
    EXPECT_EQ(response.status, 429) << response.body;
    EXPECT_NE(response.body.find("Unavailable"), std::string::npos);
    ASSERT_TRUE(response.headers.count("Retry-After"));
    const int retry_after = std::stoi(response.headers.at("Retry-After"));
    EXPECT_GE(retry_after, 1);
    EXPECT_LE(retry_after, 30);
    ++shed;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  // Sheds are transient: never remembered as negative cache entries
  // (the same query must be retryable), but counted in the stats.
  EXPECT_EQ(engine.cache().Stats().negative_entries, 0u);
  std::string json = engine.StatsJson();
  EXPECT_NE(json.find("\"rejected_overload\":" + std::to_string(shed)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"shed_total\":" + std::to_string(shed)),
            std::string::npos)
      << json;
}

TEST(ServeEngineTest, QueueDeadlineExpiryMapsTo503WithRetryAfter) {
  const eval::Workbench& wb = SharedWorkbench();
  // One solve at a time with a 5 ms queue deadline: the tail of a burst
  // has aged out by the time the worker reaches it (each predecessor
  // costs a full pipeline solve), and must be answered with a typed
  // DeadlineExceeded -> 503 instead of being solved for nobody.
  ServeEngineOptions options;
  options.num_threads = 1;
  options.queue.queue_deadline = std::chrono::milliseconds(5);
  ServeEngine engine(WorkbenchEpoch(wb), options);
  ui::RePagerService service(&engine);
  const auto& entry = wb.bank().Get(0);

  constexpr int kBurst = 10;
  std::mutex mu;
  std::vector<ui::HttpResponse> responses;
  for (int i = 0; i < kBurst; ++i) {
    ui::HttpRequest request{"GET",
                            "/api/path",
                            {{"q", entry.query},
                             {"seeds", std::to_string(5 + i)},
                             {"year", std::to_string(entry.year)}}};
    service.HandleAsync(request, [&](ui::HttpResponse response) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(std::move(response));
    });
    if (i == 0) {
      // Let the head of the burst finish before queueing the tail: the
      // contract under test is "head solved, tail aged out", and on a
      // loaded machine even the first dispatch can lose a race with a
      // too-tight deadline if the whole burst is queued blind.
      for (int spin = 0; spin < 1000; ++spin) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!responses.empty()) break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  }
  for (int i = 0; i < 1000; ++i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (responses.size() == kBurst) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  int ok = 0, expired = 0;
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(responses.size(), static_cast<size_t>(kBurst));
  for (const ui::HttpResponse& response : responses) {
    if (response.status == 200) {
      ++ok;
      continue;
    }
    // Expiry end to end: DeadlineExceeded -> 503 (not the 429 shed
    // path: the work was accepted, then abandoned) + Retry-After from
    // the measured drain time.
    EXPECT_EQ(response.status, 503) << response.body;
    EXPECT_NE(response.body.find("DeadlineExceeded"), std::string::npos);
    ASSERT_TRUE(response.headers.count("Retry-After"));
    const int retry_after = std::stoi(response.headers.at("Retry-After"));
    EXPECT_GE(retry_after, 1);
    EXPECT_LE(retry_after, 30);
    ++expired;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(expired, 1);
  // Stats snapshot before the retry below, whose own (transient) expiry
  // under machine load would otherwise skew the exact counters.
  std::string json = engine.StatsJson();
  EXPECT_NE(json.find("\"deadline_expired\":" + std::to_string(expired)),
            std::string::npos)
      << json;
  EXPECT_NE(
      json.find("\"deadline_exceeded_total\":" + std::to_string(expired)),
      std::string::npos)
      << json;
  // Expiries are transient overload, never negative-cached; retrying an
  // expired query computes fine once the burst has passed. A retry can
  // itself age out on a loaded machine — that too is transient, so the
  // test retries the retry.
  EXPECT_EQ(engine.cache().Stats().negative_entries, 0u);
  auto retry = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(entry.query, 5 + kBurst - 1, entry.year, done);
  }).get();
  for (int attempt = 0; attempt < 50 && !retry.ok(); ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    retry = AsFuture<Result<ServeResponse>>([&](auto done) {
      engine.GenerateAsync(entry.query, 5 + kBurst - 1, entry.year, done);
    }).get();
  }
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(ServeEngineTest, ShedQuerySucceedsOnRetry) {
  const eval::Workbench& wb = SharedWorkbench();
  ServeEngineOptions options;
  options.num_threads = 1;
  options.queue.max_queue_depth = 1;
  ServeEngine engine(WorkbenchEpoch(wb), options);
  const auto& entry = wb.bank().Get(1);
  // Overload the queue, remembering which seed counts were shed.
  constexpr int kBurst = 6;
  std::mutex mu;
  std::vector<int> shed_seeds;
  std::atomic<int> done_count{0};
  for (int i = 0; i < kBurst; ++i) {
    int seeds = 5 + i;
    engine.GenerateAsync(entry.query, seeds, entry.year,
                         [&, seeds](Result<ServeResponse> r) {
                           if (!r.ok() && r.status().IsUnavailable()) {
                             std::lock_guard<std::mutex> lock(mu);
                             shed_seeds.push_back(seeds);
                           }
                           ++done_count;
                         });
  }
  while (done_count.load() < kBurst) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(shed_seeds.empty());
  // Retrying a shed request once the burst passed must compute fine —
  // the 429 left no poisoned negative entry behind.
  auto retry = AsFuture<Result<ServeResponse>>([&](auto done) {
    engine.GenerateAsync(entry.query, shed_seeds.front(), entry.year, done);
  }).get();
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry->cache_hit);
}

TEST(ServeEngineTest, StopDrainsInFlightSolveEndToEnd) {
  const eval::Workbench& wb = SharedWorkbench();
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(WorkbenchEpoch(wb), options);
  ui::RePagerService service(&engine);
  ui::HttpServer server(
      [&](const ui::HttpRequest& request, ui::HttpServer::Done done) {
        service.HandleAsync(request, std::move(done));
      });
  int port = server.Start(0).value();
  const auto& entry = wb.bank().Get(2);
  std::string q;
  for (char ch : entry.query) q += (ch == ' ') ? '+' : ch;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string request = "GET /api/path?q=" + q +
                        "&year=" + std::to_string(entry.year) +
                        " HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  // Wait until the solve is in flight, then stop: the graceful drain
  // must let the compute finish and flush the response before closing.
  for (int i = 0; i < 500 && server.Stats().requests_handled == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(server.Stats().requests_handled, 1u);
  server.Stop();

  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("reading_order"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
}

// ------------------------------------------- end-to-end over HTTP sockets

TEST(ServeEngineTest, ConcurrentHttpRequestsBitIdenticalToSerial) {
  const eval::Workbench& wb = SharedWorkbench();
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(WorkbenchEpoch(wb), options);
  ui::RePagerService service(&engine);
  // The production path: async handler on the epoll reactor, so poller
  // threads hand compute to the engine instead of blocking on it.
  ui::HttpServer server(
      [&](const ui::HttpRequest& request, ui::HttpServer::Done done) {
        service.HandleAsync(request, std::move(done));
      });
  int port = server.Start(0).value();

  // Serial reference bodies, rendered through an independent engine so
  // no serving state is shared with the system under test.
  ServeEngineOptions ref_options;
  ref_options.num_threads = 1;
  ref_options.enable_cache = false;
  ServeEngine ref_engine(WorkbenchEpoch(wb), ref_options);
  ui::RePagerService ref_service(&ref_engine);

  constexpr int kClients = 4, kRounds = 3;
  std::vector<std::string> expected(kClients);
  std::vector<std::string> targets(kClients);
  auto strip = [](const std::string& body) {
    // Serving metadata (serve_seconds, cache_hit, seconds) differs
    // between paths; the path payload itself must be bit-identical.
    size_t at = body.find("\"nodes\":");
    return at == std::string::npos ? body : body.substr(at);
  };
  for (int c = 0; c < kClients; ++c) {
    const auto& entry = wb.bank().Get(static_cast<size_t>(c));
    std::string q;
    for (char ch : entry.query) q += (ch == ' ') ? '+' : ch;
    targets[c] = "/api/path?q=" + q + "&year=" + std::to_string(entry.year);
    ui::HttpRequest request{"GET",
                            "/api/path",
                            {{"q", entry.query},
                             {"year", std::to_string(entry.year)}}};
    auto reference = AsFuture<ui::HttpResponse>([&](auto done) {
      ref_service.HandleAsync(request, done);
    }).get();
    ASSERT_EQ(reference.status, 200) << reference.body;
    expected[c] = strip(reference.body);
  }

  std::atomic<int> mismatches{0}, errors{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ui::HttpClient client;
      if (!client.Connect(port).ok()) {
        ++errors;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        auto r = client.Fetch("GET", targets[c]);
        if (!r.ok() || r->status != 200) {
          ++errors;
          continue;
        }
        if (strip(r->body) != expected[c]) ++mismatches;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  // Each distinct query computed once; the rest were served hot.
  QueryCacheStats stats = engine.cache().Stats();
  EXPECT_EQ(stats.insertions, static_cast<uint64_t>(kClients));
  EXPECT_GE(stats.hits, static_cast<uint64_t>(kClients * (kRounds - 1)));
  server.Stop();
}

// A slow client must not corrupt its own response: the reactor parks
// the partially-written response on EPOLLOUT and resumes as the
// client's window opens, and the payload stays bit-identical to serial.
TEST(ServeEngineTest, SlowClientReceivesBitIdenticalResponse) {
  const eval::Workbench& wb = SharedWorkbench();
  ServeEngineOptions options;
  options.num_threads = 2;
  ServeEngine engine(WorkbenchEpoch(wb), options);
  ui::RePagerService service(&engine);
  ui::HttpServer server(
      [&](const ui::HttpRequest& request, ui::HttpServer::Done done) {
        service.HandleAsync(request, std::move(done));
      });
  int port = server.Start(0).value();

  const auto& entry = wb.bank().Get(0);
  ui::HttpRequest reference_request{
      "GET",
      "/api/path",
      {{"q", entry.query}, {"year", std::to_string(entry.year)}}};
  auto reference = AsFuture<ui::HttpResponse>([&](auto done) {
    service.HandleAsync(reference_request, done);
  }).get();
  ASSERT_EQ(reference.status, 200) << reference.body;
  auto strip = [](const std::string& body) {
    size_t at = body.find("\"nodes\":");
    return at == std::string::npos ? body : body.substr(at);
  };

  // Raw socket with a tiny receive buffer, read in 128-byte sips: the
  // server sees a crawling peer while other clients stay responsive.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string q;
  for (char ch : entry.query) q += (ch == ' ') ? '+' : ch;
  std::string request = "GET /api/path?q=" + q +
                        "&year=" + std::to_string(entry.year) +
                        " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char sip[128];
  ssize_t n;
  while ((n = ::read(fd, sip, sizeof(sip))) > 0) {
    response.append(sip, static_cast<size_t>(n));
    if (response.size() % 4096 < sizeof(sip)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ::close(fd);
  size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_EQ(strip(response.substr(body_at + 4)), strip(reference.body));
  server.Stop();
}

}  // namespace
}  // namespace rpg::serve
