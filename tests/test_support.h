// Shared fixtures and helpers for the test suite.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "browser/browser.h"
#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "net/http.h"
#include "net/network.h"
#include "server/generator.h"
#include "server/site.h"
#include "store/store.h"
#include "util/clock.h"

namespace cookiepicker::testsupport {

// The message as HTTP/1.1 wire text — the reference net::wireSize is pinned
// against (responses always declare Content-Length, as wireSize counts).
inline std::string toWireFormat(const net::HttpRequest& request) {
  std::string wire =
      request.method + " " + request.url.pathWithQuery() + " HTTP/1.1\r\n";
  wire += "Host: " + request.url.host() + "\r\n";
  for (const net::HeaderMap::Entry& entry : request.headers.entries()) {
    wire += entry.name + ": " + entry.value + "\r\n";
  }
  wire += "\r\n";
  wire += request.body;
  return wire;
}

inline std::string toWireFormat(const net::HttpResponse& response) {
  std::string wire = "HTTP/1.1 " + std::to_string(response.status) + " " +
                     response.statusText + "\r\n";
  for (const net::HeaderMap::Entry& entry : response.headers.entries()) {
    wire += entry.name + ": " + entry.value + "\r\n";
  }
  wire += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  wire += "\r\n";
  wire += response.body;
  return wire;
}

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

}  // namespace cookiepicker::testsupport
