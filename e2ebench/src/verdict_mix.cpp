// Workload `verdict-mix`: the real serve path in one process. A frontend
// serve::HttpServer serves serve::VerdictService, whose sessions fetch over
// SocketTransport → AsyncHttpClient → an OriginTier of buildSite origins,
// with a shared KnowledgeBase and provenance attribution on (`cookiepicker
// serve --attribution` with a knowledge base).
//
// An open loop sends GET /verdict at a fixed rate over one pipelined
// keep-alive connection. Hosts come from the repo's seeded Zipf browsing
// model over the roster; the head is trained during set-up, so its
// verdicts are warm knowledge reads, while tail hosts arrive cold, train
// with attribution and publish. Every
// verdict body must equal what a sim-transport VerdictService answers to
// the same request sequence.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "browser/session_model.h"
#include "knowledge/knowledge_base.h"
#include "net/network.h"
#include "serve/async_client.h"
#include "serve/event_loop.h"
#include "serve/http_server.h"
#include "serve/origin_tier.h"
#include "serve/socket_transport.h"
#include "serve/verdict_service.h"
#include "server/generator.h"
#include "util/clock.h"
#include "workloads.h"

namespace e2ebench {

namespace {

namespace cp = cookiepicker;
using cp::server::SiteSpec;

constexpr int kHosts = 1000;   // roster the verdict requests draw from
// The roster is the same for every seed; the seed draws the traffic. With
// a seeded roster, which kind of site lands on the few top ranks (the top
// one alone gets about an eighth of the requests) moved CPU per page by a
// tenth from seed to seed.
constexpr std::uint64_t kRosterSeed = 1;
constexpr int kViews = 12;     // views per verdict session
constexpr double kRatePerSecond = 40.0;  // a third to a half of capacity
constexpr int kOriginThreads = 1;

cp::serve::VerdictServiceConfig serviceConfig(std::uint64_t seed,
                                              cp::knowledge::KnowledgeBase* kb) {
  cp::serve::VerdictServiceConfig config;
  config.defaultViews = kViews;
  config.seed = seed;
  config.picker.forcum.attribution = cp::core::AttributionMode::Provenance;
  config.knowledge = kb;
  return config;
}

// The roster, its head (trained during set-up) and the request sequence
// drawn from `seed`. Requests are the sites of browser::UserSessionModel
// with its default popularity skew and one page per session, so every
// step draws a site; the roster order is the popularity order. The head
// is the smallest set of top ranks that carries half of that traffic.
struct Traffic {
  std::vector<SiteSpec> roster;
  std::vector<std::string> head;
  std::vector<std::string> requests;
};

Traffic makeTraffic(std::uint64_t seed, std::size_t count) {
  Traffic traffic;
  traffic.roster = cp::server::measurementRoster(kHosts, kRosterSeed);
  std::vector<std::string> domains;
  for (const SiteSpec& spec : traffic.roster) domains.push_back(spec.domain);

  cp::browser::UserSessionModel::Config model;
  model.meanPagesPerSession = 1.0;
  std::vector<double> mass;
  double total = 0.0;
  for (std::size_t rank = 0; rank < domains.size(); ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), model.zipfExponent);
    mass.push_back(total);
  }
  std::size_t last = 0;
  while (mass[last] < total / 2.0) ++last;
  traffic.head.assign(domains.begin(),
                      domains.begin() + static_cast<std::ptrdiff_t>(last + 1));

  cp::browser::UserSessionModel sessions(domains, model, seed);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string url = sessions.next().url;
    traffic.requests.push_back(net::Url::parse(url)->host());
  }
  return traffic;
}

std::string verdictPath(const std::string& host) {
  return "/verdict?host=" + host + "&views=" + std::to_string(kViews);
}

std::string jsonField(const std::string& body, const std::string& field) {
  const std::string key = "\"" + field + "\":";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return std::string();
  std::size_t begin = at + key.size();
  if (begin < body.size() && body[begin] == '"') ++begin;
  std::size_t end = begin;
  while (end < body.size() && body[end] != '"' && body[end] != ',' &&
         body[end] != '}') {
    ++end;
  }
  return body.substr(begin, end - begin);
}

// The frontend handler in traced runs: one Op span per verdict, split by
// the verdict's knowledge outcome.
class TimedVerdictHandler : public net::HttpHandler {
 public:
  TimedVerdictHandler(net::HttpHandler& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}
  net::HttpResponse handle(const net::HttpRequest& request) override {
    Call call;
    call.startNs = nowNs();
    net::HttpResponse response;
    {
      ScopedSpan span(spans_, Layer::Op,
                      static_cast<std::uint32_t>(calls.size() + 1));
      response = inner_.handle(request);
    }
    call.endNs = nowNs();
    call.outcome = jsonField(response.body, "knowledge");
    calls.push_back(std::move(call));
    return response;
  }

  struct Call {
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::string outcome;
  };
  std::vector<Call> calls;  // frontend loop thread only, read after stop

 private:
  net::HttpHandler& inner_;
  SpanRecorder* spans_;
};

// The serving side: origin tier, the verdict service on its socket
// transport, and the frontend listener on its own loop thread.
class VerdictWorld {
 public:
  VerdictWorld(const Traffic& traffic, std::uint64_t seed, SpanRecorder* spans)
      : tier_(tierConfig(seed)) {
    for (const SiteSpec& spec : traffic.roster) {
      std::shared_ptr<net::HttpHandler> site =
          cp::server::buildSite(spec, siteClock_);
      if (spans != nullptr) {
        auto timed = std::make_shared<TimedHandler>(std::move(site), spans);
        sites.push_back(timed);
        site = std::move(timed);
      }
      tier_.addHost(spec.domain, std::move(site));
    }
    tier_.start();
    cp::serve::AsyncClientConfig clientConfig;
    clientConfig.resolve = tier_.resolver();
    clientConfig.maxPipelineDepth = 4;
    clientConfig.seed = seed;
    client_ = std::make_unique<cp::serve::AsyncHttpClient>(clientLoop_.loop(),
                                                           clientConfig);
    socket_ = std::make_unique<cp::serve::SocketTransport>(*client_);
    net::Transport* transport = socket_.get();
    if (spans != nullptr) {
      timed = std::make_unique<TimedTransport>(*socket_, spans);
      transport = timed.get();
    }
    service_ = std::make_unique<cp::serve::VerdictService>(
        *transport, serviceConfig(seed, &knowledge_));
    for (const SiteSpec& spec : traffic.roster) {
      service_->addHost(spec.domain, spec.pageCount);
    }
    // The head of the popularity order trains now, so it answers warm.
    for (const std::string& host : traffic.head) {
      service_->runVerdict(host, kViews);
    }
    net::HttpHandler* front = service_.get();
    if (spans != nullptr) {
      handler = std::make_unique<TimedVerdictHandler>(*service_, spans);
      front = handler.get();
    }
    frontend_ = std::make_unique<cp::serve::HttpServer>(
        frontLoop_, [front](const std::string&) { return front; }, seed);
    port = frontend_->listen(0);
    frontThread_ = std::thread([this]() { frontLoop_.run(); });
    // EventLoop::run() clears the stop flag on entry, so a stop() issued
    // before the thread gets there would be lost; wait until it is in.
    while (!frontLoop_.running()) std::this_thread::yield();
  }

  ~VerdictWorld() { stop(); }
  VerdictWorld(const VerdictWorld&) = delete;
  VerdictWorld& operator=(const VerdictWorld&) = delete;

  // Stops the frontend and the origin tier; stats, the handler's calls and
  // the traced transport's counts stay readable.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    frontLoop_.stop();
    if (frontThread_.joinable()) frontThread_.join();
    frontendStats = frontend_->stats();
    frontend_.reset();
    originStats = client_->stats();
    service_.reset();
    socket_.reset();
    client_.reset();
    tier_.stop();
    tierStats = tier_.stats();
  }

  cp::serve::AsyncClientStats clientStats() const { return client_->stats(); }

  std::uint16_t port = 0;
  std::vector<std::shared_ptr<TimedHandler>> sites;
  std::unique_ptr<TimedTransport> timed;
  std::unique_ptr<TimedVerdictHandler> handler;
  cp::serve::HttpServerStats frontendStats;
  cp::serve::HttpServerStats tierStats;
  cp::serve::AsyncClientStats originStats;

 private:
  static cp::serve::OriginTierConfig tierConfig(std::uint64_t seed) {
    cp::serve::OriginTierConfig config;
    config.seed = seed;
    config.threads = kOriginThreads;
    return config;
  }

  cp::util::SimClock siteClock_;
  cp::knowledge::KnowledgeBase knowledge_;
  cp::serve::OriginTier tier_;
  cp::serve::LoopThread clientLoop_;
  std::unique_ptr<cp::serve::AsyncHttpClient> client_;
  std::unique_ptr<cp::serve::SocketTransport> socket_;
  std::unique_ptr<cp::serve::VerdictService> service_;
  cp::serve::EventLoop frontLoop_;
  std::unique_ptr<cp::serve::HttpServer> frontend_;
  std::thread frontThread_;
  bool stopped_ = false;
};

struct Reply {
  int status = 0;
  std::string body;
};

struct VerdictRun {
  OpenLoopRun loop;
  std::vector<Reply> replies;
};

// Sends `requests[0..count)` at kRatePerSecond over one pipelined
// connection and waits for every reply.
VerdictRun openLoop(const VerdictWorld& world,
                    const std::vector<std::string>& requests,
                    std::size_t count) {
  VerdictRun run;
  run.replies.resize(count);
  cp::serve::LoopThread loop;
  cp::serve::AsyncClientConfig config;
  const std::uint16_t port = world.port;
  config.resolve = [port](const std::string&) {
    return std::optional<std::uint16_t>(port);
  };
  config.maxConnectionsPerHost = 1;
  config.maxPipelineDepth = 1 << 16;
  config.requestDeadlineMs = 120000.0;
  cp::serve::AsyncHttpClient client(loop.loop(), config);
  run.loop = driveOpenLoop(count, kRatePerSecond, [&](std::size_t i,
                                                      auto done) {
    net::HttpRequest request;
    request.url = *net::Url::parse("http://verdicts.local" +
                                   verdictPath(requests[i]));
    client.fetch(std::move(request), [&run, i, done](net::Exchange exchange) {
      Reply& reply = run.replies[i];
      reply.status = exchange.response.status;
      reply.body = std::move(exchange.response.body);
      done();
    });
  });
  return run;
}

// The sim-transport reference: the same set-up training and request
// sequence through a VerdictService over the seeded sim network.
std::vector<std::string> simReference(const Traffic& traffic,
                                      std::uint64_t seed, std::size_t count) {
  cp::util::SimClock siteClock;
  cp::net::Network network(seed);
  cp::knowledge::KnowledgeBase knowledge;
  cp::serve::VerdictService service(network, serviceConfig(seed, &knowledge));
  for (const SiteSpec& spec : traffic.roster) {
    network.registerHost(spec.domain, cp::server::buildSite(spec, siteClock),
                         spec.latencyProfile());
    service.addHost(spec.domain, spec.pageCount);
  }
  for (const std::string& host : traffic.head) {
    service.runVerdict(host, kViews);
  }
  std::vector<std::string> bodies;
  bodies.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    net::HttpRequest request;
    request.url = *net::Url::parse("http://verdicts.local" +
                                   verdictPath(traffic.requests[i]));
    bodies.push_back(service.handle(request).body);
  }
  return bodies;
}

void checkRun(const Traffic& traffic, std::uint64_t seed,
              const VerdictRun& run, RunResult& result) {
  const std::size_t count = run.replies.size();
  result.attempted += count;
  if (!run.loop.complete) {
    result.fail("verdict-mix: replies missing after 120 s");
  }
  const std::vector<std::string> reference =
      simReference(traffic, seed, count);
  for (std::size_t i = 0; i < count; ++i) {
    const Reply& reply = run.replies[i];
    if (reply.status != 200 || reply.body != reference[i]) {
      ++result.failed;
      result.fail("verdict-mix: verdict " + std::to_string(i) + " for " +
                  traffic.requests[i] + " differs from the sim reference");
    }
  }
  checkGenerator("verdict-mix", run.loop.lagMs, result);
}

std::size_t requestCount(double seconds) {
  return static_cast<std::size_t>(std::llround(seconds * kRatePerSecond));
}

}  // namespace

RunResult runVerdictMix(const Options& options) {
  RunResult result;
  if (!options.trace) {
    const std::size_t count = requestCount(options.seconds);
    const Traffic traffic = makeTraffic(options.seed, count);
    std::vector<double> setupSeconds;
    std::unique_ptr<VerdictWorld> world;
    for (int i = 0; i < kSetupRepeats; ++i) {
      world.reset();
      const std::int64_t start = nowNs();
      world = std::make_unique<VerdictWorld>(traffic, options.seed, nullptr);
      setupSeconds.push_back(secondsBetween(start, nowNs()));
    }
    const VerdictRun run = openLoop(*world, traffic.requests, count);
    const double rss = peakRssMb();
    world->stop();
    const cp::serve::AsyncClientStats& origin = world->originStats;
    char stats[200];
    std::snprintf(stats, sizeof(stats),
                  "origin client: %llu dispatches, %llu retries, %llu drops, "
                  "%llu timeouts",
                  static_cast<unsigned long long>(origin.dispatches),
                  static_cast<unsigned long long>(origin.retriesScheduled),
                  static_cast<unsigned long long>(origin.drops),
                  static_cast<unsigned long long>(origin.timeouts));
    result.summary.emplace_back(stats);
    world.reset();

    EndToEnd e2e;
    e2e.setupSeconds = median(setupSeconds);
    e2e.peakRssMb = rss;
    e2e.pagesPerSecond = static_cast<double>(count * kViews) /
                         std::max(run.loop.seconds, 1e-9);
    e2e.cpuUsPerPage =
        run.loop.cpuSeconds * 1e6 / static_cast<double>(count * kViews);
    e2e.latenciesMs = run.loop.latencyMs;
    e2e.latencyName = "verdict";
    addEndToEnd(result, e2e);
    char line[160];
    std::snprintf(line, sizeof(line), "offered %.1f verdicts/s for %zu verdicts",
                  kRatePerSecond, count);
    result.summary.insert(result.summary.begin(), line);
    checkRun(traffic, options.seed, run, result);
    return result;
  }

  // Traced run: the first half of the sequence untraced (overhead
  // baseline), then the same half traced on a fresh world.
  const std::size_t count = requestCount(options.seconds / 2.0);
  const Traffic traffic = makeTraffic(options.seed, count);
  double untracedCpu = 0.0;
  {
    VerdictWorld world(traffic, options.seed, nullptr);
    const VerdictRun run = openLoop(world, traffic.requests, count);
    untracedCpu = run.loop.cpuSeconds;
    checkRun(traffic, options.seed, run, result);
  }

  SpanRecorder spans;
  VerdictWorld world(traffic, options.seed, &spans);
  const cp::serve::AsyncClientStats before = world.clientStats();
  TransportCounts setupCounts = world.timed->counts;
  std::uint64_t setupRequests = world.timed->totalRequests;
  std::uint64_t setupRenders = 0;
  std::uint64_t setupRenderBytes = 0;
  for (const auto& site : world.sites) {
    setupRenders += site->renders;
    setupRenderBytes += site->bytes;
  }
  const VerdictRun run = openLoop(world, traffic.requests, count);
  world.stop();
  checkRun(traffic, options.seed, run, result);

  spans.adoptByContainment(Layer::Server, Layer::Net);
  // Only spans of the measured verdicts: those under a frontend handler.
  std::vector<Span> measured;
  {
    const std::vector<Span>& all = spans.spans();
    std::vector<std::int32_t> remap(all.size(), -1);
    for (std::size_t i = 0; i < all.size(); ++i) {
      std::int32_t root = static_cast<std::int32_t>(i);
      while (all[static_cast<std::size_t>(root)].parent >= 0) {
        root = all[static_cast<std::size_t>(root)].parent;
      }
      if (all[static_cast<std::size_t>(root)].layer != Layer::Op) continue;
      remap[i] = static_cast<std::int32_t>(measured.size());
      measured.push_back(all[i]);
    }
    for (Span& span : measured) {
      if (span.parent >= 0) {
        span.parent = remap[static_cast<std::size_t>(span.parent)];
      }
    }
  }
  const LayerBudget budget = layerBudget(measured);
  auto selfOf = [&](Layer layer) {
    return budget.selfNs[static_cast<int>(layer)];
  };
  auto spansOf = [&](Layer layer) {
    return static_cast<std::uint64_t>(budget.spans[static_cast<int>(layer)]);
  };

  const TimedTransport& timed = *world.timed;
  TransportCounts counts = timed.counts;
  counts.requests -= setupCounts.requests;
  counts.bytes -= setupCounts.bytes;
  counts.hiddenFirstAttempts -= setupCounts.hiddenFirstAttempts;
  counts.confirmStrips -= setupCounts.confirmStrips;
  std::uint64_t renders = 0;
  std::uint64_t renderBytes = 0;
  for (const auto& site : world.sites) {
    renders += site->renders;
    renderBytes += site->bytes;
  }
  renders -= setupRenders;
  renderBytes -= setupRenderBytes;
  const double verdicts = static_cast<double>(count);
  const double pages = verdicts * kViews;
  const cp::serve::AsyncClientStats& after = world.originStats;

  LayerValues values;
  values["server.render_us"] = usPer(selfOf(Layer::Server),
                                     spansOf(Layer::Server));
  values["server.renders_per_page"] = ratio(static_cast<double>(renders),
                                            pages);
  values["server.bytes_per_render"] =
      ratio(static_cast<double>(renderBytes), static_cast<double>(renders));
  values["net.dispatch_self_us"] =
      usPer(selfOf(Layer::Net), timed.totalRequests - setupRequests);
  values["net.requests_per_page"] =
      ratio(static_cast<double>(counts.requests), pages);
  values["net.bytes_per_page"] =
      ratio(static_cast<double>(counts.bytes), pages);
  values["core.hidden_per_page"] =
      ratio(static_cast<double>(counts.hiddenFirstAttempts), pages);
  values["core.confirm_strips_per_verdict"] =
      ratio(static_cast<double>(counts.confirmStrips), verdicts);

  double warm = 0.0;
  double cold = 0.0;
  std::int64_t warmNs = 0;
  std::int64_t coldNs = 0;
  std::int64_t handlerNs = 0;
  double queueWaitMs = 0.0;
  const auto& calls = world.handler->calls;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const auto& call = calls[i];
    const std::int64_t ns = call.endNs - call.startNs;
    handlerNs += ns;
    // "unconsulted" (a host that set no persistent cookie) is neither.
    if (call.outcome == "warm") {
      warm += 1.0;
      warmNs += ns;
    } else if (call.outcome == "cold" || call.outcome == "demoted") {
      cold += 1.0;
      coldNs += ns;
    }
    // One pipelined connection: calls arrive in request order.
    if (i < run.loop.dueNs.size()) {
      queueWaitMs +=
          static_cast<double>(call.startNs - run.loop.dueNs[i]) / 1e6;
    }
  }
  values["knowledge.warm_ratio"] = ratio(warm, verdicts);
  values["knowledge.warm_verdict_us"] =
      usPer(warmNs, static_cast<std::uint64_t>(warm));
  values["knowledge.cold_verdict_us"] =
      usPer(coldNs, static_cast<std::uint64_t>(cold));
  values["knowledge.hidden_per_verdict"] =
      ratio(static_cast<double>(counts.hiddenFirstAttempts), verdicts);
  values["serve.handler_us"] = usPer(handlerNs, calls.size());
  values["serve.queue_wait_ms"] =
      ratio(queueWaitMs, static_cast<double>(calls.size()));
  // How long a verdict's session waits on the socket transport, origin
  // render included: outermost Net spans end to end, per verdict.
  std::int64_t transportNs = 0;
  for (const Span& span : measured) {
    const bool nested =
        span.parent >= 0 &&
        measured[static_cast<std::size_t>(span.parent)].layer == Layer::Net;
    if (span.layer == Layer::Net && !nested) {
      transportNs += span.endNs - span.startNs;
    }
  }
  values["serve.transport_wait_us"] =
      usPer(transportNs, static_cast<std::uint64_t>(count));
  values["serve.dispatches"] =
      ratio(static_cast<double>(after.dispatches - before.dispatches),
            verdicts);
  values["serve.reuse_ratio"] =
      ratio(static_cast<double>(after.reusedDispatches -
                                before.reusedDispatches),
            static_cast<double>(after.dispatches - before.dispatches));
  values["serve.connections_opened"] =
      static_cast<double>(after.connectionsOpened - before.connectionsOpened);
  values["serve.retries"] =
      static_cast<double>(after.retriesScheduled - before.retriesScheduled);
  values["serve.drops"] = static_cast<double>(after.drops - before.drops);
  values["serve.timeouts"] =
      static_cast<double>(after.timeouts - before.timeouts);
  values["serve.parse_errors"] = static_cast<double>(
      world.tierStats.parseErrors + world.frontendStats.parseErrors);
  values["bench.gen_lag_p99_ms"] =
      percentileUnsorted(run.loop.lagMs, 99.0).value;
  values["bench.unattributed_share"] =
      ratio(static_cast<double>(selfOf(Layer::Op)),
            static_cast<double>(budget.rootNs));
  values["bench.trace_overhead"] = ratio(run.loop.cpuSeconds, untracedCpu);
  addLatencyLayers(run.loop.latencyMs, values);
  rerunCapturedLayers(timed.capture, values);

  spans.writeTsv(options.runDir + "/trace-verdict-mix.tsv");
  emitPerLayer(result, values);
  return result;
}

}  // namespace e2ebench
