// One per-site CookiePicker session — the recipe the training fleet and the
// verdict service both run: a fresh Browser (own SimClock and jar, RNG
// keyed by seed ^ fnv1a64(host)) browses /page{v % pageCount} through a
// CookiePicker, enforces every stable host, captures report and state, and
// publishes to the shared knowledge base. The deterministic half of the
// result is a pure function of (seed, host, views), whatever transport
// carries the bytes and whichever thread runs the session.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cookies/policy.h"
#include "core/cookie_picker.h"
#include "knowledge/knowledge_base.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "store/state_sink.h"

namespace cookiepicker::core {

// Settings every session shares; FleetConfig and VerdictServiceConfig
// extend it.
struct SessionConfig {
  std::uint64_t seed = 2007;
  CookiePickerConfig picker;
  cookies::CookiePolicy policy = cookies::CookiePolicy::recommended();
  // Enforce every stable host at the end of its session (block + purge the
  // cookies FORCUM left unmarked), as a batch audit would.
  bool enforceStableAfterRun = true;
  // Crowd-shared site knowledge (optional, not owned). When set, the
  // session consults it (a warm site skips straight to enforce) and
  // publishes its export back; sessions touch only their own host's entry.
  // Overrides `picker.sharedKnowledge`, which sessions never read.
  knowledge::KnowledgeBase* knowledge = nullptr;
};

struct SessionResult {
  HostReport report;
  // CookiePicker::saveState() (jar with marks, FORCUM state, enforced
  // hosts) — the determinism anchor — and the session jar alone.
  std::string state;
  std::string jarState;
  int pagesVisited = 0;
  // Filled when observability is collected. The deterministic half of the
  // snapshot and the audit bytes are pure functions of (seed, host, views).
  obs::MetricsSnapshot metrics;
  std::string auditJsonl;
  KnowledgeOutcome knowledgeOutcome = KnowledgeOutcome::Unconsulted;
  // The host's persistent cookies left in the jar, by mark, sorted by name
  // (best-effort: enforcement may have purged blocked ones already).
  std::vector<std::string> usefulCookies;
  std::vector<std::string> blockedCookies;
};

// `sink` (optional, not owned) receives every state transition of the
// session. With `collectObservability`, this thread's obs records land in
// session-scoped sinks until the result is captured; publishing happens
// inside that scope.
SessionResult runHostSession(net::Transport& transport,
                             const std::string& host, int pageCount,
                             int views, const SessionConfig& config,
                             store::StateSink* sink,
                             bool collectObservability);

}  // namespace cookiepicker::core
