// Serve-tier soak: verdicts through real sockets under socket-layer
// faults must match a fault-free sim-transport reference byte-for-byte.
//
// This is the serve module's end-to-end determinism claim. The reference
// runs every Table-2 session over the sim Network with no faults. The
// run under test pushes the same sessions through the full socket stack
// — SocketTransport → AsyncHttpClient → loopback TCP → OriginTier — with
// a flapping fault plan dropping and 5xx-ing hidden fetches. Because
// those faults short-circuit before the site handler runs, and because
// the browser's wheel-driven retries heal every flap (fail=1 against
// maxAttempts=3), each logical request ultimately sees exactly the bytes
// the fault-free run saw — so the verdict JSON, cookie names included,
// must agree to the byte.
//
// Run by tools/check.sh's serve-soak configuration with
// COOKIEPICKER_CHAOS=1, which doubles the session length.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cookies/jar.h"
#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "knowledge/knowledge_base.h"
#include "net/network.h"
#include "net/url.h"
#include "serve/async_client.h"
#include "serve/event_loop.h"
#include "serve/http_server.h"
#include "serve/origin_tier.h"
#include "serve/socket_transport.h"
#include "serve/verdict_service.h"
#include "server/generator.h"
#include "util/clock.h"
#include "util/rng.h"

namespace cookiepicker {
namespace {

constexpr std::uint64_t kSeed = 2007;

int soakViews() {
  const char* env = std::getenv("COOKIEPICKER_CHAOS");
  const bool chaos = env != nullptr && std::string_view(env) != "0";
  return chaos ? 24 : 12;
}

std::shared_ptr<const faults::FaultPlan> flappingPlan() {
  // Sparse flaps so the default retry policy (3 attempts) always recovers:
  // at most two consecutive faulted attempts even when both rules align.
  auto plan = faults::FaultPlan::parse(
      "rule scope=hidden action=connection-drop fail=1 recover=7\n"
      "rule scope=hidden action=server-error status=503 fail=1 recover=9\n");
  EXPECT_TRUE(plan.has_value());
  return std::make_shared<const faults::FaultPlan>(*plan);
}

TEST(ServeSoak, FaultySocketVerdictsMatchFaultFreeSimReference) {
  const std::vector<server::SiteSpec> roster = server::table2Roster();
  const int views = soakViews();

  // Reference: the same sessions over the sim, no faults anywhere.
  std::map<std::string, std::string> reference;
  {
    util::SimClock siteClock;
    net::Network network(kSeed);
    serve::VerdictService service(network, {});
    for (const auto& spec : roster) {
      network.registerHost(spec.domain, server::buildSite(spec, siteClock),
                           spec.latencyProfile());
      service.addHost(spec.domain, spec.pageCount);
    }
    for (const auto& spec : roster) {
      reference[spec.domain] = service.runVerdict(spec.domain, views);
      ASSERT_FALSE(reference[spec.domain].empty());
    }
  }

  // Under test: real sockets, flapping socket-layer faults, wheel retries.
  util::SimClock siteClock;
  serve::OriginTierConfig tierConfig;
  tierConfig.seed = kSeed;
  tierConfig.threads = 2;
  tierConfig.faultPlan = flappingPlan();
  serve::OriginTier tier(tierConfig);
  serve::VerdictServiceConfig serviceConfig;
  for (const auto& spec : roster) {
    tier.addHost(spec.domain, server::buildSite(spec, siteClock));
  }
  tier.start();
  {
    serve::LoopThread loopThread;
    serve::AsyncClientConfig clientConfig;
    clientConfig.resolve = tier.resolver();
    clientConfig.maxPipelineDepth = 4;
    serve::AsyncHttpClient client(loopThread.loop(), clientConfig);
    serve::SocketTransport transport(client);
    serve::VerdictService service(transport, serviceConfig);
    for (const auto& spec : roster) {
      service.addHost(spec.domain, spec.pageCount);
    }

    for (const auto& spec : roster) {
      EXPECT_EQ(service.runVerdict(spec.domain, views),
                reference[spec.domain])
          << spec.label << " diverged under socket faults";
    }
    // The plan really was firing: this agreement was earned, not vacuous.
    EXPECT_GE(client.stats().drops + client.stats().retriesScheduled, 1u);
  }
  tier.stop();
  EXPECT_GE(tier.stats().faultsInjected, 1u);
}

// The verdict service behind its own HTTP listener: the full
// `cookiepicker serve` shape, queried over the wire.
TEST(ServeSoak, VerdictEndpointServesOverTheWire) {
  const std::vector<server::SiteSpec> roster = server::table2Roster();
  const int views = 4;  // parity is parity; keep the wire test quick
  const std::string target = roster.front().domain;

  // Sim reference for the same (seed, host, views) session.
  std::string expected;
  {
    util::SimClock siteClock;
    net::Network network(kSeed);
    serve::VerdictService service(network, {});
    for (const auto& spec : roster) {
      network.registerHost(spec.domain, server::buildSite(spec, siteClock),
                           spec.latencyProfile());
      service.addHost(spec.domain, spec.pageCount);
    }
    expected = service.runVerdict(target, views);
    ASSERT_FALSE(expected.empty());
  }

  // Origin tier + socket transport feeding the verdict service...
  util::SimClock siteClock;
  serve::OriginTierConfig tierConfig;
  tierConfig.seed = kSeed;
  serve::OriginTier tier(tierConfig);
  for (const auto& spec : roster) {
    tier.addHost(spec.domain, server::buildSite(spec, siteClock));
  }
  tier.start();
  {
    serve::LoopThread originClientLoop;
    serve::AsyncClientConfig originClientConfig;
    originClientConfig.resolve = tier.resolver();
    serve::AsyncHttpClient originClient(originClientLoop.loop(),
                                        originClientConfig);
    serve::SocketTransport transport(originClient);
    auto service = std::make_shared<serve::VerdictService>(
        transport, serve::VerdictServiceConfig{});
    for (const auto& spec : roster) {
      service->addHost(spec.domain, spec.pageCount);
    }

    // ...itself listening on its own loop, like the CLI's serve mode.
    serve::EventLoop serviceLoop;
    serve::HttpServer frontend(
        serviceLoop, [&service](const std::string&) { return service.get(); },
        kSeed);
    const std::uint16_t port = frontend.listen(0);
    std::thread serviceThread([&serviceLoop]() { serviceLoop.run(); });

    serve::LoopThread probeLoop;
    serve::AsyncClientConfig probeConfig;
    probeConfig.resolve = [port](const std::string&) {
      return std::optional<std::uint16_t>(port);
    };
    probeConfig.requestDeadlineMs = 120000.0;  // a verdict session is slow
    serve::AsyncHttpClient probe(probeLoop.loop(), probeConfig);
    serve::SocketTransport probeTransport(probe);

    net::HttpRequest health;
    health.url = net::Url::parse("http://verdicts.local/healthz").value();
    EXPECT_EQ(probeTransport.dispatch(health).response.body, "ok");

    net::HttpRequest ask;
    ask.url = net::Url::parse("http://verdicts.local/verdict?host=" + target +
                              "&views=" + std::to_string(views))
                  .value();
    const net::Exchange answer = probeTransport.dispatch(ask);
    EXPECT_EQ(answer.response.status, 200);
    EXPECT_EQ(answer.response.headers.get("Content-Type"),
              std::optional<std::string>("application/json"));
    EXPECT_EQ(answer.response.body, expected);

    net::HttpRequest missing;
    missing.url =
        net::Url::parse("http://verdicts.local/verdict?host=unknown.example")
            .value();
    EXPECT_EQ(probeTransport.dispatch(missing).response.status, 400);

    serviceLoop.stop();
    serviceThread.join();
  }
  tier.stop();
}

// /verdict runs on the serve loop, so a malformed or out-of-range `views`
// must be refused before any session runs — a single huge value would
// otherwise stall every connection. Hosts match ASCII-case-insensitively
// on every entry point.
TEST(ServeSoak, VerdictRejectsBadViewsWithoutRunningASession) {
  const std::vector<server::SiteSpec> roster = server::table2Roster();
  util::SimClock siteClock;
  net::Network network(kSeed);
  server::registerRoster(network, siteClock, roster);
  serve::VerdictService service(network, {});
  for (const auto& spec : roster) {
    service.addHost(spec.domain, spec.pageCount);
  }
  const std::string host = roster.front().domain;
  auto ask = [&service, &host](const std::string& views) {
    net::HttpRequest request;
    request.url = net::Url::parse("http://verdicts.local/verdict?host=" +
                                  host + "&views=" + views)
                      .value();
    return service.handle(request);
  };

  for (const std::string views :
       {"2000000000", "12abc", "0", "-3", "1001", " 4", "4 ", "+4", "0x10",
        "99999999999999999999"}) {
    const net::HttpResponse response = ask(views);
    EXPECT_EQ(response.status, 400) << "views=" << views;
    EXPECT_NE(response.body.find("views"), std::string::npos) << views;
  }
  EXPECT_EQ(service.sessionsRun(), 0u);

  const net::HttpResponse ok = ask(std::to_string(serve::kMaxVerdictViews));
  EXPECT_EQ(ok.status, 200);
  EXPECT_NE(ok.body.find("\"views\":1000,"), std::string::npos);
  EXPECT_EQ(service.sessionsRun(), 1u);

  std::string shouted = host;
  for (char& c : shouted) c = static_cast<char>(std::toupper(c));
  EXPECT_EQ(service.runVerdict(shouted, 4), service.runVerdict(host, 4));
}

// --- verdict bytes pin ---------------------------------------------------------
//
// fnv1a64 of the concatenated /verdict bodies for every Table 2 host on the
// fault-free sim, in three configurations: the default service, a shared
// knowledge base trained by a cold pass and then read by a warm pass, and
// provenance attribution. The constants are the bytes the verdict session
// produced as first written inside VerdictService::runVerdict; any rework
// of the session must reproduce them exactly.

constexpr int kPinViews = 12;

std::string verdictPass(const serve::VerdictServiceConfig& config) {
  const std::vector<server::SiteSpec> roster = server::table2Roster();
  util::SimClock siteClock;
  net::Network network(kSeed);
  server::registerRoster(network, siteClock, roster);
  serve::VerdictService service(network, config);
  for (const auto& spec : roster) {
    service.addHost(spec.domain, spec.pageCount);
  }
  std::string bodies;
  for (const auto& spec : roster) {
    const std::string body = service.runVerdict(spec.domain, kPinViews);
    EXPECT_FALSE(body.empty()) << spec.domain;
    bodies += body;
    bodies += '\n';
  }
  return bodies;
}

TEST(ServeSoak, VerdictBytesPin) {
  const std::string plain = verdictPass({});
  EXPECT_EQ(util::fnv1a64(plain), 0x4eedd3f374bd172full) << plain;

  knowledge::KnowledgeBase shared;
  serve::VerdictServiceConfig withKnowledge;
  withKnowledge.picker.forcum.stableViewThreshold = 3;
  withKnowledge.knowledge = &shared;
  const std::string cold = verdictPass(withKnowledge);
  const std::string warm = verdictPass(withKnowledge);
  // Sensitivity: the two passes take different knowledge paths.
  EXPECT_NE(cold.find("\"knowledge\":\"cold\""), std::string::npos);
  EXPECT_NE(warm.find("\"knowledge\":\"warm\""), std::string::npos);
  EXPECT_EQ(util::fnv1a64(cold), 0xe2e3083afe986ffdull) << cold;
  EXPECT_EQ(util::fnv1a64(warm), 0xd431c78103817025ull) << warm;

  serve::VerdictServiceConfig provenance;
  provenance.picker.forcum.attribution = core::AttributionMode::Provenance;
  const std::string attributed = verdictPass(provenance);
  EXPECT_EQ(util::fnv1a64(attributed), 0x4d7fee1bfaf66174ull) << attributed;
}

// A warm session reports its own views and hidden requests, not the crowd
// counters its consult max-joined into the site state: a warm verdict
// answers pageViews == views and hiddenRequests == 0, and so does the
// fleet's HostResult, which runs the same session recipe.
TEST(ServeSoak, WarmSessionsReportTheirOwnCounts) {
  knowledge::KnowledgeBase shared;
  serve::VerdictServiceConfig withKnowledge;
  withKnowledge.picker.forcum.stableViewThreshold = 3;
  withKnowledge.knowledge = &shared;
  verdictPass(withKnowledge);  // cold: trains and publishes
  const std::string warm = verdictPass(withKnowledge);
  int warmVerdicts = 0;
  std::size_t begin = 0;
  for (std::size_t end = warm.find('\n'); end != std::string::npos;
       begin = end + 1, end = warm.find('\n', begin)) {
    const std::string verdict = warm.substr(begin, end - begin);
    if (verdict.find("\"knowledge\":\"warm\"") == std::string::npos) continue;
    ++warmVerdicts;
    EXPECT_NE(verdict.find(",\"pageViews\":" + std::to_string(kPinViews) +
                           ",\"hiddenRequests\":0,"),
              std::string::npos)
        << verdict;
  }
  EXPECT_GT(warmVerdicts, 0);

  const std::vector<server::SiteSpec> roster = server::table2Roster();
  fleet::FleetConfig fleetConfig;
  fleetConfig.seed = kSeed;
  fleetConfig.viewsPerHost = kPinViews;
  fleetConfig.picker = withKnowledge.picker;
  fleetConfig.knowledge = &shared;
  util::SimClock siteClock;
  net::Network network(kSeed);
  server::registerRoster(network, siteClock, roster);
  const fleet::FleetReport report =
      fleet::TrainingFleet(network, fleetConfig).run(roster);
  int warmHosts = 0;
  for (const fleet::HostResult& host : report.hosts) {
    if (host.knowledgeOutcome != core::KnowledgeOutcome::Warm) continue;
    ++warmHosts;
    EXPECT_EQ(host.report.pageViews, kPinViews) << host.host;
    EXPECT_EQ(host.report.hiddenRequests, 0) << host.host;
  }
  EXPECT_EQ(warmHosts, warmVerdicts);
}

// The batch fleet and the verdict service run the same per-site session:
// for one seed, view count and picker, every host's fleet report equals
// the fields of its verdict JSON, and the verdict's cookie-name lists equal
// the fleet session jar's useful/unmarked persistent cookies.
TEST(ServeSoak, FleetAndVerdictAgree) {
  const std::vector<server::SiteSpec> roster = server::table2Roster();
  constexpr int kViews = 8;
  core::CookiePickerConfig picker;
  picker.forcum.stableViewThreshold = 3;

  fleet::FleetReport report;
  {
    util::SimClock siteClock;
    net::Network network(kSeed);
    server::registerRoster(network, siteClock, roster);
    fleet::FleetConfig fleetConfig;
    fleetConfig.workers = 2;
    fleetConfig.viewsPerHost = kViews;
    fleetConfig.seed = kSeed;
    fleetConfig.picker = picker;
    report = fleet::TrainingFleet(network, fleetConfig).run(roster);
  }

  // A fresh world for the service, so neither side sees the other's site
  // state.
  util::SimClock siteClock;
  net::Network network(kSeed);
  server::registerRoster(network, siteClock, roster);
  serve::VerdictServiceConfig serviceConfig;
  serviceConfig.seed = kSeed;
  serviceConfig.picker = picker;
  serve::VerdictService service(network, serviceConfig);
  for (const auto& spec : roster) {
    service.addHost(spec.domain, spec.pageCount);
  }

  auto names = [](const std::vector<std::string>& list) {
    std::string out = "[";
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i > 0) out += ',';
      out += "\"" + list[i] + "\"";
    }
    return out + "]";
  };
  ASSERT_EQ(report.hosts.size(), roster.size());
  int enforcedHosts = 0;
  for (const fleet::HostResult& host : report.hosts) {
    const core::HostReport& r = host.report;
    std::vector<std::string> useful;
    std::vector<std::string> blocked;
    const cookies::CookieJar jar =
        cookies::CookieJar::deserialize(host.jarState);
    for (const cookies::CookieRecord* record :
         jar.persistentCookiesForHost(host.host)) {
      (record->useful ? useful : blocked).push_back(record->key.name);
    }
    std::sort(useful.begin(), useful.end());
    std::sort(blocked.begin(), blocked.end());
    const std::string expected =
        "{\"host\":\"" + host.host + "\",\"views\":" +
        std::to_string(host.pagesVisited) +
        ",\"persistentCookies\":" + std::to_string(r.persistentCookies) +
        ",\"markedUseful\":" + std::to_string(r.markedUseful) +
        ",\"pageViews\":" + std::to_string(r.pageViews) +
        ",\"hiddenRequests\":" + std::to_string(r.hiddenRequests) +
        ",\"trainingActive\":" + (r.trainingActive ? "true" : "false") +
        ",\"enforced\":" + (r.enforced ? "true" : "false") +
        ",\"usefulCookies\":" + names(useful) +
        ",\"blockedCookies\":" + names(blocked) + "}";
    EXPECT_EQ(service.runVerdict(host.host, kViews), expected) << host.label;
    if (r.enforced) ++enforcedHosts;
  }
  // Not vacuous: training finished and enforcement ran somewhere.
  EXPECT_GE(enforcedHosts, 1);
}

}  // namespace
}  // namespace cookiepicker
