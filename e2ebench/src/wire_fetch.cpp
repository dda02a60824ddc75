// Workload `wire-fetch`: an open loop of hidden fetches at a fixed rate
// through AsyncHttpClient to an OriginTier of minimal cookie-bearing
// origins (a few hundred bytes and one Set-Cookie, rendered in about a
// microsecond), pipelined over one keep-alive connection per origin. The
// socket tier — event loops, HTTP/1.1 framing, pools — does nearly all the
// work; origin rendering and detection do none. Every response must be a
// 200 with the expected body and Set-Cookie.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>

#include "serve/async_client.h"
#include "serve/event_loop.h"
#include "serve/origin_tier.h"
#include "workloads.h"

namespace e2ebench {

namespace {

namespace cp = cookiepicker;

constexpr int kOrigins = 4;  // one generator connection each (= nproc)
constexpr int kPipelineDepth = 64;
constexpr int kOriginThreads = 2;
constexpr double kRatePerSecond = 8000.0;
constexpr int kWarmupFetches = 20000;       // closed loop, during set-up

std::string originHost(int index) {
  std::string host = std::to_string(index);
  host.insert(host.begin(), 'w');
  return host + ".bench.example";
}

std::string expectedBody(const std::string& host, const std::string& path) {
  return "<html><head><title>" + host + "</title></head><body><p>page " +
         path + "</p><img src=\"/trk.gif\"></body></html>";
}

std::string expectedCookie(const std::string& host) {
  return "sid=" + host + "; Max-Age=86400; Path=/";
}

// The origin: a page with one persistent cookie and a tracker pixel. With
// `calls`, it records when it served each request (index from the path).
class MinimalOrigin : public net::HttpHandler {
 public:
  struct Call {
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::size_t bytes = 0;
  };

  MinimalOrigin(std::string host, std::vector<Call>* calls)
      : host_(std::move(host)), calls_(calls) {}

  net::HttpResponse handle(const net::HttpRequest& request) override {
    const std::int64_t start = calls_ != nullptr ? nowNs() : 0;
    net::HttpResponse response;
    response.headers.add("Content-Type", "text/html");
    response.headers.add("Set-Cookie", expectedCookie(host_));
    response.body = expectedBody(host_, request.url.path());
    if (calls_ != nullptr) {
      const std::string& path = request.url.path();
      std::size_t index = 0;
      const auto parsed = std::from_chars(
          path.data() + std::min<std::size_t>(5, path.size()),
          path.data() + path.size(), index);
      if (parsed.ec == std::errc() && index < calls_->size()) {
        Call& call = (*calls_)[index];
        call.startNs = start;
        call.bytes = responseBytes(response);
        call.endNs = nowNs();
      }
    }
    return response;
  }

 private:
  std::string host_;
  std::vector<Call>* calls_;
};

net::HttpRequest fetchRequest(std::size_t index) {
  net::HttpRequest request;
  request.url = *net::Url::parse(
      "http://" + originHost(static_cast<int>(index % kOrigins)) + "/page" +
      std::to_string(index));
  request.kind = net::RequestKind::Hidden;
  return request;
}

// Origins on the tier, the client on its loop, connections warmed.
class WireWorld {
 public:
  explicit WireWorld(std::uint64_t seed,
                     std::vector<MinimalOrigin::Call>* calls)
      : tier_(tierConfig(seed)) {
    for (int i = 0; i < kOrigins; ++i) {
      tier_.addHost(originHost(i),
                    std::make_shared<MinimalOrigin>(originHost(i), calls));
    }
    tier_.start();
    cp::serve::AsyncClientConfig config;
    config.resolve = tier_.resolver();
    config.maxConnectionsPerHost = 1;
    config.maxPipelineDepth = kPipelineDepth;
    config.seed = seed;
    client = std::make_unique<cp::serve::AsyncHttpClient>(loop_.loop(),
                                                          config);
    warmUp();
  }

  ~WireWorld() { stop(); }
  WireWorld(const WireWorld&) = delete;
  WireWorld& operator=(const WireWorld&) = delete;

  void stop() {
    if (client == nullptr) return;
    clientStats = client->stats();
    client.reset();
    tier_.stop();
    tierStats = tier_.stats();
  }

  std::unique_ptr<cp::serve::AsyncHttpClient> client;
  cp::serve::AsyncClientStats clientStats;
  cp::serve::HttpServerStats tierStats;

 private:
  static cp::serve::OriginTierConfig tierConfig(std::uint64_t seed) {
    cp::serve::OriginTierConfig config;
    config.seed = seed;
    config.threads = kOriginThreads;
    return config;
  }

  // Closed-loop warm-up: keeps every pipeline slot busy until
  // kWarmupFetches complete. Its paths lie beyond any measured index.
  void warmUp() {
    std::mutex mutex;
    std::condition_variable cv;
    int done = 0;
    std::atomic<int> issued{0};
    std::function<void()> issue = [&]() {
      const int i = issued.fetch_add(1);
      if (i >= kWarmupFetches) return;
      client->fetch(fetchRequest(static_cast<std::size_t>(i) + (1u << 30)),
                    [&](net::Exchange) {
                      issue();
                      std::lock_guard lock(mutex);
                      if (++done == kWarmupFetches) cv.notify_all();
                    });
    };
    for (int i = 0; i < kOrigins * kPipelineDepth; ++i) issue();
    std::unique_lock lock(mutex);
    cv.wait(lock, [&]() { return done == kWarmupFetches; });
  }

  cp::serve::OriginTier tier_;
  cp::serve::LoopThread loop_;
};

struct FetchRecord {
  std::int64_t submitNs = 0;
  std::size_t bytes = 0;
  bool ok = false;
};

struct WireRun {
  OpenLoopRun loop;
  std::vector<FetchRecord> records;
};

WireRun openLoop(WireWorld& world, std::size_t count) {
  WireRun run;
  run.records.resize(count);
  run.loop = driveOpenLoop(count, kRatePerSecond, [&](std::size_t i,
                                                      auto done) {
    run.records[i].submitNs = nowNs();
    world.client->fetch(fetchRequest(i), [&run, i, done](
                                             net::Exchange exchange) {
      FetchRecord& record = run.records[i];
      record.bytes = exchange.requestBytes + exchange.responseBytes;
      const std::string host = originHost(static_cast<int>(i % kOrigins));
      const net::HttpResponse& response = exchange.response;
      record.ok = response.status == 200 &&
                  response.body ==
                      expectedBody(host, "/page" + std::to_string(i)) &&
                  response.headers.get("Set-Cookie") ==
                      std::optional<std::string>(expectedCookie(host));
      done();
    });
  });
  return run;
}

void checkRun(const WireRun& run, RunResult& result) {
  result.attempted += run.records.size();
  if (!run.loop.complete) {
    result.fail("wire-fetch: responses missing after 120 s");
  }
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    if (!run.records[i].ok) {
      ++result.failed;
      result.fail("wire-fetch: fetch " + std::to_string(i) +
                  " was not a 200 with the expected body and Set-Cookie");
    }
  }
  checkGenerator("wire-fetch", run.loop.lagMs, result);
}

std::size_t requestCount(double seconds) {
  return static_cast<std::size_t>(std::llround(seconds * kRatePerSecond));
}

}  // namespace

RunResult runWireFetch(const Options& options) {
  RunResult result;
  if (!options.trace) {
    const std::size_t count = requestCount(options.seconds);
    std::vector<double> setupSeconds;
    std::unique_ptr<WireWorld> world;
    for (int i = 0; i < kSetupRepeats; ++i) {
      world.reset();
      const std::int64_t start = nowNs();
      world = std::make_unique<WireWorld>(options.seed, nullptr);
      setupSeconds.push_back(secondsBetween(start, nowNs()));
    }
    const WireRun run = openLoop(*world, count);
    const double rss = peakRssMb();
    world.reset();

    EndToEnd e2e;
    e2e.setupSeconds = median(setupSeconds);
    e2e.peakRssMb = rss;
    e2e.pagesPerSecond = static_cast<double>(run.loop.latencyMs.size()) /
                         std::max(run.loop.seconds, 1e-9);
    e2e.cpuUsPerPage = run.loop.cpuSeconds * 1e6 / static_cast<double>(count);
    e2e.latenciesMs = run.loop.latencyMs;
    e2e.latencyName = "fetch";
    addEndToEnd(result, e2e);
    char line[160];
    std::snprintf(line, sizeof(line), "offered %.0f fetches/s for %zu fetches",
                  kRatePerSecond, count);
    result.summary.insert(result.summary.begin(), line);
    checkRun(run, result);
    return result;
  }

  // Traced run: half the time untraced (overhead baseline), half traced.
  const std::size_t count = requestCount(options.seconds / 2.0);
  double untracedCpu = 0.0;
  {
    WireWorld world(options.seed, nullptr);
    const WireRun run = openLoop(world, count);
    untracedCpu = run.loop.cpuSeconds;
    checkRun(run, result);
  }
  std::vector<MinimalOrigin::Call> calls(count);
  WireWorld world(options.seed, &calls);
  const cp::serve::AsyncClientStats before = world.client->stats();
  const WireRun run = openLoop(world, count);
  world.stop();
  checkRun(run, result);

  // One root span per fetch (submit → completion, the serve tier end to
  // end) with the origin's handle() as its child.
  SpanRecorder spans;
  std::uint64_t renderBytes = 0;
  std::uint64_t wireBytes = 0;
  double queueWaitMs = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const FetchRecord& record = run.records[i];
    const MinimalOrigin::Call& call = calls[i];
    if (run.loop.doneNs[i] == 0 || call.endNs == 0) continue;
    Span root;
    root.startNs = record.submitNs;
    root.endNs = run.loop.doneNs[i];
    root.op = static_cast<std::uint32_t>(i + 1);
    root.layer = Layer::Serve;
    Span render;
    render.startNs = call.startNs;
    render.endNs = call.endNs;
    render.op = root.op;
    render.layer = Layer::Server;
    render.thread = 1;
    render.parent = spans.add(root);
    spans.add(render);
    renderBytes += call.bytes;
    wireBytes += record.bytes;
    queueWaitMs +=
        static_cast<double>(call.startNs - run.loop.dueNs[i]) / 1e6;
  }
  const LayerBudget budget = layerBudget(spans.spans());
  const std::uint64_t fetches = budget.spans[static_cast<int>(Layer::Serve)];
  const std::uint64_t renders = budget.spans[static_cast<int>(Layer::Server)];
  const cp::serve::AsyncClientStats& after = world.clientStats;
  const double dispatches =
      static_cast<double>(after.dispatches - before.dispatches);

  LayerValues values;
  values["server.render_us"] =
      usPer(budget.selfNs[static_cast<int>(Layer::Server)], renders);
  values["server.renders_per_page"] =
      ratio(static_cast<double>(renders), static_cast<double>(fetches));
  values["server.bytes_per_render"] =
      ratio(static_cast<double>(renderBytes), static_cast<double>(renders));
  values["net.requests_per_page"] = ratio(dispatches, static_cast<double>(count));
  values["net.bytes_per_page"] =
      ratio(static_cast<double>(wireBytes), static_cast<double>(fetches));
  values["serve.queue_wait_ms"] =
      ratio(queueWaitMs, static_cast<double>(fetches));
  values["serve.transport_wait_us"] =
      usPer(budget.selfNs[static_cast<int>(Layer::Serve)], fetches);
  values["serve.dispatches"] = ratio(dispatches, static_cast<double>(count));
  values["serve.reuse_ratio"] = ratio(
      static_cast<double>(after.reusedDispatches - before.reusedDispatches),
      dispatches);
  values["serve.connections_opened"] =
      static_cast<double>(after.connectionsOpened - before.connectionsOpened);
  values["serve.retries"] =
      static_cast<double>(after.retriesScheduled - before.retriesScheduled);
  values["serve.drops"] = static_cast<double>(after.drops - before.drops);
  values["serve.timeouts"] =
      static_cast<double>(after.timeouts - before.timeouts);
  values["serve.parse_errors"] =
      static_cast<double>(world.tierStats.parseErrors);
  values["bench.gen_lag_p99_ms"] =
      percentileUnsorted(run.loop.lagMs, 99.0).value;
  values["bench.unattributed_share"] =
      ratio(static_cast<double>(budget.selfNs[static_cast<int>(Layer::Op)]),
            static_cast<double>(budget.rootNs));
  values["bench.trace_overhead"] = ratio(run.loop.cpuSeconds, untracedCpu);
  addLatencyLayers(run.loop.latencyMs, values);

  spans.writeTsv(options.runDir + "/trace-wire-fetch.tsv");
  emitPerLayer(result, values);
  return result;
}

}  // namespace e2ebench
