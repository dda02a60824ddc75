// The CookiePicker verdict service.
//
// An HttpHandler exposing cookie-usefulness verdicts over HTTP — the
// service half of `cookiepicker serve`. A request names a host from the
// roster; the service runs a full CookiePicker training session for it
// (core::runHostSession, the fleet's session recipe) with every fetch
// flowing through the injected net::Transport — the sim for reference
// runs, the SocketTransport for the real service tier, where each hidden
// request attempt is one keep-alive fetch against the origin tier.
//
// Routes:
//   GET /healthz               → 200 "ok"
//   GET /verdict?host=H[&views=N] → verdict JSON: session report plus the
//       sorted useful/blocked persistent-cookie names. Deterministic
//       fields only — no timing — so two runs (or sim vs. socket) can be
//       compared byte-for-byte; the soak harness does exactly that. N must
//       be a decimal integer in [1, kMaxVerdictViews] (default
//       defaultViews); anything else, like an unknown host, is a 400 and
//       runs no session.
//   GET /stats                 → service counters JSON
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "core/session.h"
#include "net/transport.h"

namespace cookiepicker::serve {

// The handler runs on the serve loop; an unbounded `views` would stall it.
inline constexpr int kMaxVerdictViews = 1000;

// The session settings plus the default view count. With `knowledge` set
// the verdict JSON gains a "knowledge" field naming the consult outcome;
// null keeps the bytes the sim-vs-socket parity soaks compare.
struct VerdictServiceConfig : core::SessionConfig {
  int defaultViews = 12;
};

class VerdictService : public net::HttpHandler {
 public:
  VerdictService(net::Transport& transport, VerdictServiceConfig config = {});

  // Hosts the service will run sessions for, with their page counts
  // (sessions cycle /page0../page{count-1} like the fleet does).
  void addHost(const std::string& host, int pageCount);

  net::HttpResponse handle(const net::HttpRequest& request) override;

  // The verdict body for `host` (any ASCII case; empty if unknown) without
  // the HTTP shell, for the soak harness and the CLI's --once mode. `views`
  // is clamped to [1, kMaxVerdictViews].
  std::string runVerdict(const std::string& host, int views);

  std::uint64_t sessionsRun() const;

 private:
  net::Transport& transport_;
  VerdictServiceConfig config_;
  std::map<std::string, int> hostPages_;
  mutable std::mutex mutex_;
  std::uint64_t sessionsRun_ = 0;
};

}  // namespace cookiepicker::serve
