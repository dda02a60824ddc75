// Shared fixtures and helpers for the test suite.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "faults/fault_plan.h"
#include "fleet/aggregate.h"
#include "fleet/fleet.h"
#include "knowledge/knowledge_base.h"
#include "net/network.h"
#include "server/generator.h"
#include "server/site.h"
#include "store/store.h"
#include "util/clock.h"

namespace cookiepicker::testsupport {

// A little internet: network + clock + browser wired together, with helpers
// to drop sites in.
struct SimWorld {
  util::SimClock clock;
  net::Network network{42};
  browser::Browser browser{network, clock};

  explicit SimWorld(std::uint64_t networkSeed = 42)
      : network(networkSeed), browser(network, clock) {}

  // Registers a site built from a spec and returns its spec for ground truth.
  server::SiteSpec addSite(server::SiteSpec spec) {
    network.registerHost(spec.domain, server::buildSite(spec, clock),
                         spec.latencyProfile());
    return spec;
  }

  // A minimal calm site with one preference cookie and two trackers.
  server::SiteSpec addGenericSite(const std::string& domain,
                                  std::uint64_t seed = 7) {
    return addSite(server::makeGenericSpec("T", domain, seed));
  }

  std::string urlFor(const server::SiteSpec& spec,
                     const std::string& path = "/") const {
    return "http://" + spec.domain + path;
  }
};

// One fleet training run over a measurement roster — the recipe the
// fleet/obs/fault determinism tests all share. Every call builds a fresh
// server clock + network (runs must not share latency-RNG or server-side
// state, or comparing two runs would be meaningless), registers the roster
// before workers spawn, and installs the fault plan (if any) up front.
struct FleetRunOptions {
  int workers = 1;
  int viewsPerHost = 8;
  std::uint64_t seed = 1234;
  bool collectObservability = false;
  bool autoEnforce = true;
  // Off by default — the attribution-off differential pin depends on the
  // default run carrying zero provenance artifacts.
  core::AttributionMode attribution = core::AttributionMode::Off;
  // FORCUM's second hidden copy before a cookie-caused verdict marks.
  bool consistencyReprobe = false;
  std::shared_ptr<const faults::FaultPlan> faultPlan;
  // Durable state store the fleet should write through / recover from
  // (null = no durability). Owned by the caller, who also owns any crash
  // schedule installed on it.
  store::StateStore* stateStore = nullptr;
};

inline fleet::FleetReport runMeasurementFleet(
    const std::vector<server::SiteSpec>& roster,
    const FleetRunOptions& options) {
  util::SimClock serverClock;
  net::Network network(options.seed);
  server::registerRoster(network, serverClock, roster);
  if (options.faultPlan != nullptr) network.setFaultPlan(options.faultPlan);
  fleet::FleetConfig config;
  config.workers = options.workers;
  config.viewsPerHost = options.viewsPerHost;
  config.seed = options.seed;
  config.picker.autoEnforce = options.autoEnforce;
  config.picker.forcum.attribution = options.attribution;
  config.picker.forcum.consistencyReprobe = options.consistencyReprobe;
  config.collectObservability = options.collectObservability;
  config.stateStore = options.stateStore;
  fleet::TrainingFleet trainingFleet(network, config);
  return trainingFleet.run(roster);
}

// The N-fleet spawn/gossip/merge recipe shared by the fleet, knowledge and
// serve suites: build a KnowledgeFleetConfig from FleetRunOptions-style
// knobs and run the aggregation driver. Callers vary the topology/round
// count and compare serialized knowledge; everything else stays pinned so
// two calls differ only where the test means them to.
struct KnowledgeRunOptions {
  int fleets = 3;
  int rounds = 2;
  fleet::GossipTopology topology = fleet::GossipTopology::Ring;
  int workers = 1;
  int viewsPerHost = 8;
  // Low enough that training finishes inside viewsPerHost views — gossip
  // has nothing to share unless round-one sites actually reach stable.
  int stableViewThreshold = 3;
  std::uint64_t seed = 1234;
  bool collectObservability = true;
  std::shared_ptr<const faults::FaultPlan> faultPlan;
};

inline fleet::KnowledgeFleetReport runKnowledgeFleets(
    const std::vector<server::SiteSpec>& roster,
    const KnowledgeRunOptions& options,
    knowledge::KnowledgeBase* sharedBase = nullptr) {
  fleet::KnowledgeFleetConfig config;
  config.fleets = options.fleets;
  config.rounds = options.rounds;
  config.topology = options.topology;
  config.faultPlan = options.faultPlan;
  config.base.workers = options.workers;
  config.base.viewsPerHost = options.viewsPerHost;
  config.base.picker.forcum.stableViewThreshold = options.stableViewThreshold;
  config.base.seed = options.seed;
  config.base.collectObservability = options.collectObservability;
  return fleet::runKnowledgeFleets(roster, config, sharedBase);
}

}  // namespace cookiepicker::testsupport
