// Shared-knowledge tier benchmark: crowd convergence + warm verdict QPS.
//
// Two measurements, both written to the JSON (argv[1], default
// BENCH_knowledge.json):
//
//   * Convergence curve — for fleet sizes 1 → 10k, N sequential users visit
//     the same small roster while sharing one KnowledgeBase. Every user's
//     OWN hidden fetches are counted through a per-user session metrics
//     registry: the fetches that user put on the wire. The JSON
//     records, per size, the first (cold) user's bill, the last (warm)
//     user's bill, and the mean. tools/bench.sh gates every
//     "warm_hidden_requests" at MAX_WARM_HIDDEN_REQS (default 0): once one
//     user has trained a site, no later user ever pays a hidden request
//     for it, at any crowd size.
//
//   * Verdict-service throughput — the sim-transport VerdictService
//     answering from a warm shared base versus training from scratch per
//     verdict. "warm_qps" is gated at MIN_KNOWLEDGE_WARM_QPS; "cold_qps"
//     rides along to show the spread.
//
// Build Release; every number is wall-clock on one core.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "core/cookie_picker.h"
#include "knowledge/knowledge_base.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "serve/verdict_service.h"
#include "server/generator.h"
#include "server/site.h"
#include "util/clock.h"
#include "util/rng.h"

namespace {

using namespace cookiepicker;

constexpr std::uint64_t kSeed = 2007;
constexpr int kSites = 3;
constexpr int kViewsPerUser = 6;
constexpr int kStableViewThreshold = 3;
constexpr int kWarmVerdicts = 400;
constexpr int kColdVerdicts = 40;
const int kFleetSizes[] = {1, 10, 100, 1000, 10000};

std::vector<server::SiteSpec> benchRoster() {
  std::vector<server::SiteSpec> roster;
  for (int i = 0; i < kSites; ++i) {
    roster.push_back(server::makeGenericSpec(
        "K" + std::to_string(i), "k" + std::to_string(i) + ".bench.example",
        7 + i));
  }
  return roster;
}

core::CookiePickerConfig pickerConfig(knowledge::KnowledgeBase* shared) {
  core::CookiePickerConfig config;
  config.forcum.stableViewThreshold = kStableViewThreshold;
  config.sharedKnowledge = shared;
  return config;
}

// One user's full session over the roster: fresh browser and jar, consults
// and republishes the shared base. Returns the hidden fetches this user
// sent on the wire.
std::uint64_t runUser(net::Network& network,
                      const std::vector<server::SiteSpec>& roster,
                      knowledge::KnowledgeBase* shared, std::uint64_t seed) {
  obs::MetricsRegistry metrics;
  obs::ScopedObsSession scope(&metrics, nullptr);
  util::SimClock clock;
  browser::Browser browser(network, clock, cookies::CookiePolicy::recommended(),
                           seed);
  core::CookiePicker picker(browser, pickerConfig(shared));
  for (const auto& spec : roster) {
    for (int view = 0; view < kViewsPerUser; ++view) {
      picker.browse("http://" + spec.domain + "/page" +
                    std::to_string(view % spec.pageCount));
    }
  }
  picker.enforceStableHosts();
  if (shared != nullptr) picker.publishKnowledge();
  return metrics.snapshot().counter(obs::Counter::HiddenFetches);
}

struct FleetPoint {
  int users = 0;
  std::uint64_t coldHidden = 0;   // the first user's bill
  std::uint64_t warmHidden = 0;   // the last user's bill (users >= 2)
  std::uint64_t totalHidden = 0;
  double seconds = 0.0;
};

FleetPoint runFleetSize(const std::vector<server::SiteSpec>& roster,
                        int users) {
  util::SimClock serverClock;
  net::Network network(kSeed);
  server::registerRoster(network, serverClock, roster);
  knowledge::KnowledgeBase shared;

  FleetPoint point;
  point.users = users;
  const auto start = std::chrono::steady_clock::now();
  for (int user = 0; user < users; ++user) {
    const std::uint64_t hidden =
        runUser(network, roster, &shared,
                kSeed ^ util::fnv1a64("user-" + std::to_string(user)));
    if (user == 0) point.coldHidden = hidden;
    point.warmHidden = hidden;
    point.totalHidden += hidden;
  }
  point.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return point;
}

struct QpsRound {
  double warmQps = 0.0;
  double coldQps = 0.0;
};

QpsRound runVerdictRounds(const std::vector<server::SiteSpec>& roster) {
  util::SimClock serverClock;
  net::Network network(kSeed);
  server::registerRoster(network, serverClock, roster);

  // Warm the base with one honest user.
  knowledge::KnowledgeBase shared;
  runUser(network, roster, &shared, kSeed);

  serve::VerdictServiceConfig config;
  config.defaultViews = kViewsPerUser;
  config.seed = kSeed;
  config.picker = pickerConfig(nullptr);

  QpsRound round;
  {
    serve::VerdictServiceConfig warmConfig = config;
    warmConfig.knowledge = &shared;
    serve::VerdictService service(network, warmConfig);
    for (const auto& spec : roster) {
      service.addHost(spec.domain, spec.pageCount);
    }
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kWarmVerdicts; ++i) {
      const std::string& host = roster[i % roster.size()].domain;
      if (service.runVerdict(host, kViewsPerUser).empty()) return round;
    }
    round.warmQps =
        kWarmVerdicts /
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  {
    serve::VerdictService service(network, config);  // no shared base
    for (const auto& spec : roster) {
      service.addHost(spec.domain, spec.pageCount);
    }
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kColdVerdicts; ++i) {
      const std::string& host = roster[i % roster.size()].domain;
      if (service.runVerdict(host, kViewsPerUser).empty()) return round;
    }
    round.coldQps =
        kColdVerdicts /
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
  }
  return round;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outputPath =
      argc > 1 ? argv[1] : "BENCH_knowledge.json";
  const auto roster = benchRoster();

  std::string fleetJson;
  std::printf("knowledge convergence: %d sites, %d views/user\n", kSites,
              kViewsPerUser);
  for (const int users : kFleetSizes) {
    const FleetPoint point = runFleetSize(roster, users);
    std::printf(
        "  %5d users: cold %llu hidden, last user %llu, mean %.3f "
        "(%.2fs)\n",
        point.users, static_cast<unsigned long long>(point.coldHidden),
        static_cast<unsigned long long>(point.warmHidden),
        static_cast<double>(point.totalHidden) / point.users, point.seconds);
    char buffer[512];
    if (point.users >= 2) {
      std::snprintf(
          buffer, sizeof(buffer),
          "    {\"users\": %d, \"cold_hidden_requests\": %llu, "
          "\"warm_hidden_requests\": %llu, \"total_hidden\": %llu, "
          "\"hidden_per_user\": %.4f, \"seconds\": %.3f}",
          point.users, static_cast<unsigned long long>(point.coldHidden),
          static_cast<unsigned long long>(point.warmHidden),
          static_cast<unsigned long long>(point.totalHidden),
          static_cast<double>(point.totalHidden) / point.users,
          point.seconds);
    } else {
      // A one-user crowd has no warm user to measure.
      std::snprintf(
          buffer, sizeof(buffer),
          "    {\"users\": %d, \"cold_hidden_requests\": %llu, "
          "\"total_hidden\": %llu, \"hidden_per_user\": %.4f, "
          "\"seconds\": %.3f}",
          point.users, static_cast<unsigned long long>(point.coldHidden),
          static_cast<unsigned long long>(point.totalHidden),
          static_cast<double>(point.totalHidden) / point.users,
          point.seconds);
    }
    if (!fleetJson.empty()) fleetJson += ",\n";
    fleetJson += buffer;
  }

  const QpsRound qps = runVerdictRounds(roster);
  std::printf("verdict service: warm %.0f verdicts/s, cold %.0f verdicts/s\n",
              qps.warmQps, qps.coldQps);

  char header[512];
  std::snprintf(header, sizeof(header),
                "{\n"
                "  \"benchmark\": \"knowledge_convergence\",\n"
                "  \"sites\": %d,\n"
                "  \"views_per_user\": %d,\n"
                "  \"stable_view_threshold\": %d,\n",
                kSites, kViewsPerUser, kStableViewThreshold);
  char footer[512];
  std::snprintf(footer, sizeof(footer),
                "  \"warm_verdicts\": %d,\n"
                "  \"cold_verdicts\": %d,\n"
                "  \"warm_qps\": %.1f,\n"
                "  \"cold_qps\": %.1f\n"
                "}\n",
                kWarmVerdicts, kColdVerdicts, qps.warmQps, qps.coldQps);
  const std::string json = std::string(header) + "  \"fleet\": [\n" +
                           fleetJson + "\n  ],\n" + footer;

  if (std::FILE* file = std::fopen(outputPath.c_str(), "wb")) {
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    std::printf("wrote %s\n", outputPath.c_str());
    return 0;
  }
  std::fprintf(stderr, "cannot write %s\n", outputPath.c_str());
  return 1;
}
