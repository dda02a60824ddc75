#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "dom/interner.h"
#include "util/clock.h"
#include "util/log.h"
#include "util/strings.h"

namespace cookiepicker::fleet {

namespace {

// The completion summary a finished session stores, and its inverse: the
// report fields recovery rebuilds from it.
store::SessionMeta sessionMeta(const HostResult& result,
                               std::string fingerprint) {
  const core::HostReport& r = result.report;
  return {.complete = true, .pagesVisited = result.pagesVisited,
          .persistentCookies = r.persistentCookies,
          .markedUseful = r.markedUseful, .pageViews = r.pageViews,
          .hiddenRequests = r.hiddenRequests,
          .trainingActive = r.trainingActive, .enforced = r.enforced,
          .fingerprint = std::move(fingerprint)};
}

core::HostReport recoveredReport(const std::string& host,
                                 const store::SessionMeta& meta) {
  return {.host = host, .persistentCookies = meta.persistentCookies,
          .markedUseful = meta.markedUseful, .pageViews = meta.pageViews,
          .hiddenRequests = meta.hiddenRequests,
          .trainingActive = meta.trainingActive, .enforced = meta.enforced};
}

}  // namespace

int FleetReport::totalMarkedUseful() const {
  int total = 0;
  for (const HostResult& host : hosts) total += host.report.markedUseful;
  return total;
}

std::string FleetReport::serializeState() const {
  std::string out;
  for (const HostResult& host : hosts) {
    out += "== fleet host " + host.host + " ==\n";
    out += host.state;
  }
  return out;
}

cookies::CookieJar FleetReport::mergedJar() const {
  std::string lines;
  for (const HostResult& host : hosts) lines += host.jarState;
  return cookies::CookieJar::deserialize(lines);
}

obs::MetricsSnapshot FleetReport::mergedMetrics() const {
  obs::MetricsSnapshot merged;
  for (const HostResult& host : hosts) merged.merge(host.metrics);
  return merged;
}

std::string FleetReport::auditJsonl() const {
  std::string out;
  for (const HostResult& host : hosts) out += host.auditJsonl;
  return out;
}

TrainingFleet::TrainingFleet(net::Transport& network, FleetConfig config)
    : network_(network), config_(std::move(config)) {}

std::string TrainingFleet::configFingerprint() const {
  std::string out = "v1:";
  util::appendParts(
      out, {std::to_string(config_.seed), ":",
            std::to_string(config_.viewsPerHost), ":",
            config_.collectObservability ? "1" : "0", ":",
            config_.enforceStableAfterRun ? "1" : "0", ":",
            std::to_string(
                static_cast<int>(config_.picker.forcum.groupMode)),
            ":", config_.picker.forcum.consistencyReprobe ? "1" : "0", ":",
            config_.knowledge != nullptr ? "k1" : "k0"});
  // Appended only when attribution is on, so Off-mode fingerprints keep
  // their pre-tier bytes and recovered shards from older builds stay valid.
  if (config_.picker.forcum.attribution != core::AttributionMode::Off) {
    out += ":attr1";
  }
  return out;
}

HostResult TrainingFleet::runHostSession(const server::SiteSpec& spec) const {
  HostResult result;
  result.label = spec.label;
  result.host = spec.domain;

  // Durable store: open this host's shard first. A shard that finished a
  // session under the same config fingerprint short-circuits — the result is
  // rebuilt from the stored bytes and the session never runs. Anything else
  // (empty, torn, crashed mid-session, stale fingerprint) is reset and rerun
  // from scratch: sessions are pure functions of (seed, host), so the rerun
  // reproduces the uninterrupted bytes exactly. All recovery-path bookkeeping
  // happens before the session obs scope opens so the per-session metrics
  // stay identical between recovered and uninterrupted runs.
  store::HostStore* shard = nullptr;
  std::string fingerprint;
  if (config_.stateStore != nullptr) {
    fingerprint = configFingerprint();
    shard = config_.stateStore->openHost(spec.domain);
    const store::ReplayedState& rec = shard->recovered();
    if (rec.meta.complete && rec.meta.fingerprint == fingerprint) {
      result.recovered = true;
      result.report = recoveredReport(spec.domain, rec.meta);
      result.pagesVisited = rec.meta.pagesVisited;
      result.state = rec.stateBlob;
      result.jarState = rec.jarBlob;
      if (config_.collectObservability) {
        result.metrics = store::decodeMetricsSnapshot(rec.metricsText);
        result.auditJsonl = rec.auditJsonl;
      }
      return result;
    }
    shard->beginSession(fingerprint);
  }

  static_cast<core::SessionResult&>(result) = core::runHostSession(
      network_, spec.domain, spec.pageCount, config_.viewsPerHost, config_,
      shard, config_.collectObservability);
  if (shard != nullptr) {
    // Seal outside the obs scope: finalize's own compaction counters must
    // not land in the session snapshot (a recovered host never reruns
    // finalize, so they could not be reproduced on recovery).
    shard->finalize(sessionMeta(result, std::move(fingerprint)),
                    result.state, result.jarState,
                    store::encodeMetricsSnapshot(result.metrics),
                    result.auditJsonl);
  }
  return result;
}

FleetReport TrainingFleet::run(const std::vector<server::SiteSpec>& roster) {
  // Pre-intern common tag names so the worker threads mostly hit the
  // interner's shared-lock fast path instead of racing on first-touch
  // inserts during the opening page views. The streaming snapshot builders
  // inside each worker's Browser key their per-tag info caches by these
  // same symbol IDs, so this warms them too.
  dom::warmGlobalInterners();
  FleetReport report;
  const int workers = std::clamp(
      config_.workers, 1,
      roster.empty() ? 1 : static_cast<int>(roster.size()));
  report.workers = workers;
  report.hosts.resize(roster.size());

  // The work queue: an atomic cursor over the roster. Results land in the
  // roster-order slot, so the report is scheduling-independent.
  std::atomic<std::size_t> nextTask{0};
  std::vector<double> busyMs(static_cast<std::size_t>(workers), 0.0);
  auto workerLoop = [&](int workerIndex) {
    util::Logger::setThreadWorkerIndex(workerIndex);
    while (true) {
      // A declared crash stops the whole fleet from scheduling further
      // hosts — the process is "dead"; only what reached disk survives.
      if (config_.stateStore != nullptr && config_.stateStore->crashed()) {
        break;
      }
      const std::size_t task =
          nextTask.fetch_add(1, std::memory_order_relaxed);
      if (task >= roster.size()) break;
      util::StopWatch sessionWatch;
      HostResult result = runHostSession(roster[task]);
      result.wallMs = sessionWatch.elapsedMs();
      result.workerIndex = workerIndex;
      busyMs[static_cast<std::size_t>(workerIndex)] += result.wallMs;
      report.hosts[task] = std::move(result);
    }
    // The inline (workers <= 1) path runs on the caller's thread; leave no
    // tag behind either way.
    util::Logger::setThreadWorkerIndex(-1);
  };

  util::StopWatch wall;
  if (workers <= 1) {
    workerLoop(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers));
    for (int worker = 0; worker < workers; ++worker) {
      threads.emplace_back(workerLoop, worker);
    }
    for (std::thread& thread : threads) thread.join();
  }
  report.wallMs = wall.elapsedMs();

  for (const HostResult& host : report.hosts) {
    report.pagesVisited += static_cast<std::uint64_t>(host.pagesVisited);
    report.hiddenRequests +=
        static_cast<std::uint64_t>(host.report.hiddenRequests);
  }
  if (report.wallMs > 0.0) {
    report.pagesPerSecond =
        static_cast<double>(report.pagesVisited) / (report.wallMs / 1000.0);
    report.hiddenRequestsPerSecond =
        static_cast<double>(report.hiddenRequests) /
        (report.wallMs / 1000.0);
    double totalBusyMs = 0.0;
    for (const double ms : busyMs) totalBusyMs += ms;
    report.workerUtilization = totalBusyMs / (workers * report.wallMs);
  }
  return report;
}

}  // namespace cookiepicker::fleet
