// Workload `campaign`: batch training over server::measurementRoster through
// fleet::TrainingFleet::run, as `cookiepicker audit --workers 1 --state-dir
// --metrics-out` runs it (sim network without wall-latency sleeps, paper
// ForcumConfig, durable store and flight recorder on). Rounds of 256 hosts
// run one after another, each into a fresh state directory, until the time
// is up; successive rounds take successive slices of a 2560-host roster, so
// a run averages over many more sites than one round holds.
//
// The traced pass cannot see inside TrainingFleet, so it drives the same
// session recipe through public calls (Browser::visit, CookiePicker::
// onPageLoaded, HostStore, ...) with timing wrappers around the network,
// every site and every store shard. Both passes check that the fleet's
// serializeState() bytes equal the recipe's on a fresh world.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "browser/browser.h"
#include "core/cookie_picker.h"
#include "dom/interner.h"
#include "fleet/fleet.h"
#include "net/network.h"
#include "obs/audit.h"
#include "obs/recorder.h"
#include "server/generator.h"
#include "store/store.h"
#include "util/clock.h"
#include "util/strings.h"
#include "workloads.h"

namespace e2ebench {

namespace {

namespace cp = cookiepicker;
using cp::server::SiteSpec;

constexpr int kRoundHosts = 256;   // hosts per round
constexpr int kRosterHosts = 2560;  // slices cycle through this roster
constexpr int kViews = 12;      // just above the stable-view threshold (10)
constexpr int kWarmHosts = 24;  // warm-up sessions run during set-up

// A roster registered on a seeded sim network. With `spans`, every site is
// wrapped in a TimedHandler.
struct World {
  World(std::uint64_t seed, int hosts, SpanRecorder* spans)
      : roster(cp::server::measurementRoster(hosts, seed)), network(seed) {
    for (const SiteSpec& spec : roster) {
      std::shared_ptr<net::HttpHandler> site =
          cp::server::buildSite(spec, siteClock);
      if (spans != nullptr) {
        auto timed = std::make_shared<TimedHandler>(std::move(site), spans);
        sites.push_back(timed);
        site = std::move(timed);
      }
      network.registerHost(spec.domain, std::move(site),
                           spec.latencyProfile());
    }
  }

  void setCounting(bool on) {
    for (const auto& site : sites) site->counting = on;
  }

  // The hosts of round `round`: the next slice of the roster.
  std::vector<SiteSpec> slice(int round) const {
    const std::size_t slices = roster.size() / kRoundHosts;
    const auto begin = roster.begin() + static_cast<std::ptrdiff_t>(
                                            (round % slices) * kRoundHosts);
    return std::vector<SiteSpec>(begin, begin + kRoundHosts);
  }

  std::vector<SiteSpec> roster;
  cp::util::SimClock siteClock;
  cp::net::Network network;
  std::vector<std::shared_ptr<TimedHandler>> sites;
};

cp::fleet::FleetConfig fleetConfig(std::uint64_t seed,
                                   cp::store::StateStore* store) {
  cp::fleet::FleetConfig config;
  config.workers = 1;
  config.viewsPerHost = kViews;
  config.seed = seed;
  config.picker.autoEnforce = true;
  config.collectObservability = true;
  config.stateStore = store;
  return config;
}

cp::store::StoreConfig storeAt(const std::string& directory) {
  cp::store::StoreConfig config;
  config.directory = directory;
  return config;
}

struct Round {
  cp::fleet::FleetReport report;
  double seconds = 0.0;
  double cpuSeconds = 0.0;
};

Round fleetRound(World& world, const std::vector<SiteSpec>& hosts,
                 std::uint64_t seed, const std::string& dir) {
  Round round;
  std::filesystem::remove_all(dir);  // a stale complete shard would replay
  const double cpu = processCpuSeconds();
  const std::int64_t start = nowNs();
  {
    cp::store::StateStore store(storeAt(dir));
    cp::fleet::TrainingFleet fleet(world.network, fleetConfig(seed, &store));
    round.report = fleet.run(hosts);
  }
  round.seconds = secondsBetween(start, nowNs());
  round.cpuSeconds = processCpuSeconds() - cpu;
  std::filesystem::remove_all(dir);
  return round;
}

// Everything the traced recipe measures besides spans.
struct Tracing {
  SpanRecorder spans;
  std::unique_ptr<TimedTransport> transport;
  bool counting = true;  // counts cover the first round only
  std::uint32_t lastOp = 0;  // op ids: one per session and per page view
  std::uint64_t pages = 0;
  std::uint64_t sessions = 0;
  std::uint64_t hiddenAttempts = 0;
  std::uint64_t confirmStrips = 0;
  std::uint64_t appends = 0;
  std::uint64_t appendBytes = 0;
  std::vector<std::int32_t> stepSpans;
  std::vector<std::int32_t> storeSessionSpans;  // shard open + finalize
  struct HiddenCase {
    cp::browser::PageView view;
    net::Exchange exchange;
  };
  std::vector<HiddenCase> hiddenCases;  // for the hidden-fetch rerun
};

// One host session, step for step what TrainingFleet::runHostSession does,
// with every call into a layer made from here so it can be timed.
cp::fleet::HostResult recipeSession(const SiteSpec& spec,
                                    const cp::fleet::FleetConfig& config,
                                    const std::string& fingerprint,
                                    net::Transport& transport,
                                    cp::store::StateStore& store,
                                    Tracing* tracing) {
  SpanRecorder* spans = tracing != nullptr ? &tracing->spans : nullptr;
  ScopedSpan sessionSpan(spans, Layer::Op,
                         tracing != nullptr ? ++tracing->lastOp : 0);
  cp::fleet::HostResult result;
  result.label = spec.label;
  result.host = spec.domain;

  cp::store::HostStore* shard = nullptr;
  {
    ScopedSpan span(spans, Layer::Store);
    if (tracing != nullptr) tracing->storeSessionSpans.push_back(span.index());
    shard = store.openHost(spec.domain);
    shard->beginSession(fingerprint);
  }

  // Declared before the browser and picker, which keep pointers to it.
  std::optional<TimedSink> sink;
  if (tracing != nullptr) sink.emplace(shard, spans);
  cp::util::SimClock clock;
  cp::browser::Browser browser(transport, clock, config.policy,
                               config.seed ^ cp::util::fnv1a64(spec.domain));
  cp::core::CookiePickerConfig pickerConfig = config.picker;
  pickerConfig.sharedKnowledge = config.knowledge;
  cp::core::CookiePicker picker(browser, pickerConfig);
  picker.attachStateSink(sink.has_value()
                             ? static_cast<cp::store::StateSink*>(&*sink)
                             : shard);

  cp::obs::MetricsRegistry sessionMetrics(config.collectObservability);
  cp::obs::AuditTrail sessionAudit;
  std::optional<cp::obs::ScopedObsSession> obsScope;
  if (config.collectObservability) {
    obsScope.emplace(&sessionMetrics, &sessionAudit);
  }

  const int pages = std::max(1, spec.pageCount);
  for (int view = 0; view < config.viewsPerHost; ++view) {
    ScopedSpan pageSpan(spans, Layer::Op,
                        tracing != nullptr ? ++tracing->lastOp : 0);
    const auto url = net::Url::parse("http://" + spec.domain + "/page" +
                                     std::to_string(view % pages));
    cp::browser::PageView page;
    {
      ScopedSpan span(spans, Layer::Browser);
      page = browser.visit(*url);
    }
    cp::core::ForcumStepReport step;
    {
      ScopedSpan span(spans, Layer::Core);
      if (tracing != nullptr) tracing->stepSpans.push_back(span.index());
      step = picker.onPageLoaded(page);
    }
    browser.think();
    ++result.pagesVisited;
    if (tracing != nullptr) {
      if (tracing->counting) {
        ++tracing->pages;
        tracing->hiddenAttempts += static_cast<std::uint64_t>(
            step.hiddenAttempts);
        tracing->confirmStrips += static_cast<std::uint64_t>(
            step.attributionConfirmStrips);
      }
      TimedTransport& timed = *tracing->transport;
      if (step.hiddenRequestSent && timed.lastHidden.has_value() &&
          tracing->hiddenCases.size() < Capture::kLimit) {
        tracing->hiddenCases.push_back({std::move(page), *timed.lastHidden});
      }
    }
  }
  {
    ScopedSpan span(spans, Layer::Core);
    if (config.enforceStableAfterRun) picker.enforceStableHosts();
    result.report = picker.report(spec.domain);
    result.state = picker.saveState();
    result.jarState = browser.jar().serialize();
  }
  if (config.collectObservability) {
    obsScope.reset();
    result.metrics = sessionMetrics.snapshot();
    result.auditJsonl = sessionAudit.jsonl();
  }
  {
    ScopedSpan span(spans, Layer::Store);
    if (tracing != nullptr) tracing->storeSessionSpans.push_back(span.index());
    cp::store::SessionMeta meta;
    meta.complete = true;
    meta.pagesVisited = result.pagesVisited;
    meta.persistentCookies = result.report.persistentCookies;
    meta.markedUseful = result.report.markedUseful;
    meta.pageViews = result.report.pageViews;
    meta.hiddenRequests = result.report.hiddenRequests;
    meta.trainingActive = result.report.trainingActive;
    meta.enforced = result.report.enforced;
    meta.fingerprint = fingerprint;
    shard->finalize(meta, result.state, result.jarState,
                    cp::store::encodeMetricsSnapshot(result.metrics),
                    result.auditJsonl);
  }
  if (tracing != nullptr && tracing->counting) {
    ++tracing->sessions;
    tracing->appends += sink->appends;
    tracing->appendBytes += sink->bytes;
  }
  return result;
}

Round recipeRound(World& world, const std::vector<SiteSpec>& hosts,
                  std::uint64_t seed, const std::string& dir,
                  Tracing* tracing) {
  Round round;
  std::filesystem::remove_all(dir);
  const double cpu = processCpuSeconds();
  const std::int64_t start = nowNs();
  {
    ScopedSpan roundSpan(tracing != nullptr ? &tracing->spans : nullptr,
                         Layer::Op);
    cp::dom::warmGlobalInterners();
    cp::store::StateStore store(storeAt(dir));
    const cp::fleet::FleetConfig config = fleetConfig(seed, &store);
    const std::string fingerprint =
        cp::fleet::TrainingFleet(world.network, config).configFingerprint();
    net::Transport& transport =
        tracing != nullptr ? static_cast<net::Transport&>(*tracing->transport)
                           : world.network;
    round.report.hosts.reserve(hosts.size());
    for (const SiteSpec& spec : hosts) {
      round.report.hosts.push_back(recipeSession(spec, config, fingerprint,
                                                 transport, store, tracing));
      round.report.pagesVisited += static_cast<std::uint64_t>(
          round.report.hosts.back().pagesVisited);
    }
  }
  round.seconds = secondsBetween(start, nowNs());
  round.cpuSeconds = processCpuSeconds() - cpu;
  std::filesystem::remove_all(dir);
  return round;
}

// A useful cookie is blocked when its host ended enforced while the cookie
// was seen but not marked useful (enforcement purges it from the jar).
std::vector<std::string> blockedUsefulCookies(const SiteSpec& spec,
                                              const std::string& state) {
  cp::net::Network unused;
  cp::util::SimClock clock;
  cp::browser::Browser browser(unused, clock);
  cp::core::CookiePicker picker(browser);
  std::string error;
  if (!picker.loadState(state, &error)) return {"<state: " + error + ">"};
  std::vector<std::string> blocked;
  const auto* site = picker.forcum().siteState(spec.domain);
  if (site == nullptr || !picker.isEnforced(spec.domain)) return blocked;
  const std::vector<std::string> useful = spec.usefulCookieNames();
  for (const cp::cookies::CookieKey& key : site->knownPersistent) {
    if (std::find(useful.begin(), useful.end(), key.name) == useful.end()) {
      continue;
    }
    const cp::cookies::CookieRecord* record = browser.jar().find(key);
    if (record == nullptr || !record->useful) blocked.push_back(key.name);
  }
  return blocked;
}

void checkRound(const std::vector<SiteSpec>& hosts, const Round& round,
                RunResult& result) {
  for (std::size_t i = 0; i < round.report.hosts.size(); ++i) {
    ++result.attempted;
    const std::vector<std::string> blocked =
        blockedUsefulCookies(hosts[i], round.report.hosts[i].state);
    if (!blocked.empty()) {
      ++result.failed;
      result.fail("campaign: useful cookie " + blocked.front() +
                  " blocked on " + hosts[i].domain);
    }
  }
}

// The fleet and the recipe must produce the same bytes on a fresh world.
void checkRecipeMatchesFleet(const std::string& measured, bool measuredIsFleet,
                             std::uint64_t seed, const std::string& dir,
                             RunResult& result) {
  // measurementRoster is prefix-stable, so a world of one slice holds
  // exactly the first round's hosts.
  World world(seed, kRoundHosts, nullptr);
  const std::string reference =
      measuredIsFleet
          ? recipeRound(world, world.roster, seed, dir, nullptr)
                .report.serializeState()
          : fleetRound(world, world.roster, seed, dir).report.serializeState();
  ++result.attempted;
  if (reference != measured) {
    ++result.failed;
    result.fail("campaign: fleet and recipe serializeState() bytes differ");
  }
}

// Set-up: build the world, then warm caches and the interners with a few
// sessions on a throwaway world of the same shape.
std::unique_ptr<World> setUp(const Options& options, SpanRecorder* spans,
                             const std::string& tag) {
  auto world = std::make_unique<World>(options.seed, kRosterHosts, spans);
  World warm(options.seed ^ 0x5eedULL, kWarmHosts, nullptr);
  fleetRound(warm, warm.roster, options.seed,
             options.runDir + "/campaign-warm-" + tag);
  return world;
}

struct Pass {
  std::vector<double> sessionMs;
  std::vector<double> roundRates;  // pages per second of each round
  std::vector<double> roundCpuUs;  // CPU microseconds per page, per round
  std::uint64_t pages = 0;
  double seconds = 0.0;
  std::string firstRoundState;
};

// Fleet rounds until `seconds` of round time have passed.
Pass fleetPass(World& world, const Options& options, double seconds,
               RunResult& result) {
  Pass pass;
  for (int r = 0; pass.seconds < seconds; ++r) {
    const std::vector<SiteSpec> hosts = world.slice(r);
    const Round round = fleetRound(
        world, hosts, options.seed,
        options.runDir + "/campaign-fleet-r" + std::to_string(r));
    pass.seconds += round.seconds;
    pass.pages += round.report.pagesVisited;
    const auto pages = static_cast<double>(round.report.pagesVisited);
    pass.roundRates.push_back(pages / round.seconds);
    pass.roundCpuUs.push_back(round.cpuSeconds * 1e6 / pages);
    for (const auto& host : round.report.hosts) {
      pass.sessionMs.push_back(host.wallMs);
    }
    if (r == 0) pass.firstRoundState = round.report.serializeState();
    checkRound(hosts, round, result);
  }
  return pass;
}

}  // namespace

RunResult runCampaign(const Options& options) {
  RunResult result;
  if (!options.trace) {
    std::vector<double> setupSeconds;
    std::unique_ptr<World> world;
    for (int i = 0; i < kSetupRepeats; ++i) {
      world.reset();
      const std::int64_t start = nowNs();
      world = setUp(options, nullptr, std::to_string(i));
      setupSeconds.push_back(secondsBetween(start, nowNs()));
    }
    const Pass pass = fleetPass(*world, options, options.seconds, result);
    EndToEnd e2e;
    e2e.setupSeconds = median(setupSeconds);
    e2e.peakRssMb = peakRssMb();
    // The median round, so a stall of the machine in one round does not
    // move the figures.
    e2e.pagesPerSecond = median(pass.roundRates);
    e2e.cpuUsPerPage = median(pass.roundCpuUs);
    e2e.latenciesMs = pass.sessionMs;
    e2e.latencyName = "session";
    checkRecipeMatchesFleet(pass.firstRoundState, true, options.seed,
                            options.runDir + "/campaign-check", result);
    addEndToEnd(result, e2e);
    char line[128];
    std::snprintf(line, sizeof(line),
                  "pages_per_s = %.2f 1/s (median of %zu rounds; %llu pages "
                  "in %.2f s)",
                  e2e.pagesPerSecond, pass.roundRates.size(),
                  static_cast<unsigned long long>(pass.pages), pass.seconds);
    result.summary.insert(result.summary.begin(), line);
    return result;
  }

  // Traced run: rounds of the traced recipe alternate with rounds of the
  // same recipe untraced on a second world, which give the tracing-overhead
  // baseline under the same machine conditions.
  const double half = options.seconds / 2.0;
  auto untracedWorld = setUp(options, nullptr, "u");
  double untracedCpu = 0.0;
  double tracedCpu = 0.0;
  Tracing tracing;
  auto world = setUp(options, &tracing.spans, "t");
  tracing.transport =
      std::make_unique<TimedTransport>(world->network, &tracing.spans);
  std::string firstRoundState;
  double tracedSeconds = 0.0;
  for (int r = 0; tracedSeconds < half; ++r) {
    const std::vector<SiteSpec> hosts = world->slice(r);
    const Round untraced = recipeRound(
        *untracedWorld, hosts, options.seed,
        options.runDir + "/campaign-plain-r" + std::to_string(r), nullptr);
    untracedCpu += untraced.cpuSeconds;
    checkRound(hosts, untraced, result);
    const Round round = recipeRound(
        *world, hosts, options.seed,
        options.runDir + "/campaign-trace-r" + std::to_string(r), &tracing);
    tracedSeconds += round.seconds;
    tracedCpu += round.cpuSeconds;
    if (r == 0) {
      firstRoundState = round.report.serializeState();
      tracing.counting = false;
      tracing.transport->counting = false;
      world->setCounting(false);
    }
    checkRound(hosts, round, result);
  }
  const std::vector<Span>& spans = tracing.spans.spans();
  std::vector<double> sessionMs;  // session spans sit directly under rounds
  for (const Span& span : spans) {
    if (span.layer == Layer::Op && span.parent >= 0 &&
        spans[static_cast<std::size_t>(span.parent)].parent < 0) {
      sessionMs.push_back(static_cast<double>(span.endNs - span.startNs) /
                          1e6);
    }
  }
  checkRecipeMatchesFleet(firstRoundState, false, options.seed,
                          options.runDir + "/campaign-check", result);

  const std::vector<std::int64_t> self = selfTimesNs(spans);
  const LayerBudget budget = layerBudget(spans);
  auto selfOf = [&](Layer layer) {
    return budget.selfNs[static_cast<int>(layer)];
  };
  auto spansOf = [&](Layer layer) {
    return static_cast<std::uint64_t>(budget.spans[static_cast<int>(layer)]);
  };
  std::int64_t stepSelf = 0;
  for (const std::int32_t index : tracing.stepSpans) {
    stepSelf += self[static_cast<std::size_t>(index)];
  }
  std::int64_t storeSessionSelf = 0;
  for (const std::int32_t index : tracing.storeSessionSpans) {
    storeSessionSelf += self[static_cast<std::size_t>(index)];
  }

  std::uint64_t renders = 0;
  std::uint64_t renderBytes = 0;
  for (const auto& site : world->sites) {
    renders += site->renders;
    renderBytes += site->bytes;
  }
  const TimedTransport& timed = *tracing.transport;
  const double pages = static_cast<double>(tracing.pages);

  LayerValues values;
  values["server.render_us"] = usPer(selfOf(Layer::Server),
                                     spansOf(Layer::Server));
  values["server.renders_per_page"] = ratio(static_cast<double>(renders),
                                            pages);
  values["server.bytes_per_render"] =
      ratio(static_cast<double>(renderBytes), static_cast<double>(renders));
  values["net.dispatch_self_us"] = usPer(selfOf(Layer::Net),
                                         timed.totalRequests);
  values["net.requests_per_page"] =
      ratio(static_cast<double>(timed.counts.requests), pages);
  values["net.bytes_per_page"] =
      ratio(static_cast<double>(timed.counts.bytes), pages);
  values["browser.visit_self_us"] = usPer(selfOf(Layer::Browser),
                                          spansOf(Layer::Browser));
  values["core.step_self_us"] =
      usPer(stepSelf, static_cast<std::uint64_t>(tracing.stepSpans.size()));
  values["core.hidden_per_page"] =
      ratio(static_cast<double>(tracing.hiddenAttempts), pages);
  values["core.confirm_strips_per_verdict"] =
      ratio(static_cast<double>(tracing.confirmStrips),
            static_cast<double>(tracing.sessions));
  values["store.append_us"] =
      usPer(selfOf(Layer::Store) - storeSessionSelf,
            spansOf(Layer::Store) - tracing.storeSessionSpans.size());
  values["store.appends_per_page"] =
      ratio(static_cast<double>(tracing.appends), pages);
  values["store.bytes_per_page"] =
      ratio(static_cast<double>(tracing.appendBytes), pages);
  values["bench.unattributed_share"] =
      ratio(static_cast<double>(selfOf(Layer::Op)),
            static_cast<double>(budget.rootNs));
  values["bench.trace_overhead"] = ratio(tracedCpu, untracedCpu);
  addLatencyLayers(sessionMs, values);

  // browser: Browser::hiddenFetch rerun on captured views, answered by a
  // transport that replays the captured exchange.
  struct Replay : net::Transport {
    const net::Exchange* exchange = nullptr;
    std::int64_t ns = 0;
    net::Exchange dispatch(const net::HttpRequest&) override {
      const std::int64_t start = nowNs();
      net::Exchange copy = *exchange;
      ns += nowNs() - start;
      return copy;
    }
  } replay;
  cp::util::SimClock clock;
  cp::browser::Browser browser(replay, clock);
  const auto stripAll = [](const cp::cookies::CookieRecord&) { return true; };
  std::int64_t hiddenNs = 0;
  for (const auto& hidden : tracing.hiddenCases) {
    replay.exchange = &hidden.exchange;
    const std::int64_t start = nowNs();
    browser.hiddenFetch(hidden.view, stripAll);
    hiddenNs += nowNs() - start;
  }
  values["browser.hidden_fetch_self_us"] =
      usPer(hiddenNs - replay.ns, tracing.hiddenCases.size());
  rerunCapturedLayers(timed.capture, values);

  tracing.spans.writeTsv(options.runDir + "/trace-campaign.tsv");
  emitPerLayer(result, values);
  return result;
}

}  // namespace e2ebench
