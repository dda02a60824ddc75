#include "core/session.h"

#include <algorithm>
#include <optional>

#include "obs/audit.h"
#include "obs/recorder.h"
#include "util/clock.h"
#include "util/rng.h"

namespace cookiepicker::core {

SessionResult runHostSession(net::Transport& transport,
                             const std::string& host, int pageCount,
                             int views, const SessionConfig& config,
                             store::StateSink* sink,
                             bool collectObservability) {
  SessionResult result;
  util::SimClock clock;
  browser::Browser browser(transport, clock, config.policy,
                           config.seed ^ util::fnv1a64(host));
  CookiePickerConfig pickerConfig = config.picker;
  pickerConfig.sharedKnowledge = config.knowledge;
  CookiePicker picker(browser, pickerConfig);
  if (sink != nullptr) picker.attachStateSink(sink);

  obs::MetricsRegistry sessionMetrics(collectObservability);
  obs::AuditTrail sessionAudit;
  std::optional<obs::ScopedObsSession> obsScope;
  if (collectObservability) obsScope.emplace(&sessionMetrics, &sessionAudit);

  const int pages = std::max(1, pageCount);
  for (int view = 0; view < views; ++view) {
    picker.browse("http://" + host + "/page" + std::to_string(view % pages));
    ++result.pagesVisited;
  }
  if (config.enforceStableAfterRun) picker.enforceStableHosts();
  result.report = picker.report(host);
  result.state = picker.saveState();
  result.jarState = browser.jar().serialize();
  // Inside the obs scope, so the merge counters count toward the session.
  if (config.knowledge != nullptr) picker.publishKnowledge();
  result.knowledgeOutcome = picker.knowledgeOutcome(host);
  for (const cookies::CookieRecord* record :
       browser.jar().persistentCookiesForHost(host)) {
    (record->useful ? result.usefulCookies : result.blockedCookies)
        .push_back(record->key.name);
  }
  std::sort(result.usefulCookies.begin(), result.usefulCookies.end());
  std::sort(result.blockedCookies.begin(), result.blockedCookies.end());
  if (collectObservability) {
    obsScope.reset();  // detach before snapshotting
    result.metrics = sessionMetrics.snapshot();
    result.auditJsonl = sessionAudit.jsonl();
  }
  return result;
}

}  // namespace cookiepicker::core
