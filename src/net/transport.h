// Pluggable request transport.
//
// Everything above the network — the browser, the picker, the fleet —
// speaks to this interface, not to a concrete network. Two implementations
// exist:
//
//  * net::Network: the in-process seeded-latency simulation. It answers
//    synchronously, models latency from per-host RNG streams, and leaves
//    retry/backoff timing to the caller's virtual clock — the determinism
//    contract every byte-identity test rides on.
//  * serve::SocketTransport: real HTTP/1.1 over loopback sockets through an
//    epoll event loop, with per-host connection pools and pipelining. It
//    reports measured wall latencies.
//
// Neither retries. Browser::hiddenFetch runs the one retry loop over
// dispatch() for both, drawing jitter from the session RNG and charging
// backoffs to the virtual clock; `ownsRetryTiming()` only tells it whether
// the backoffs must also be slept.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faults/fault_engine.h"
#include "net/http.h"
#include "util/rng.h"

namespace cookiepicker::net {

// Anything that can answer HTTP requests (the server module implements it).
class HttpHandler {
 public:
  virtual ~HttpHandler() = default;
  virtual HttpResponse handle(const HttpRequest& request) = 0;
};

struct Exchange {
  HttpResponse response;
  double latencyMs = 0.0;
  std::size_t requestBytes = 0;
  std::size_t responseBytes = 0;
  // Name of the fault action the plan injected into this exchange (the
  // faults::actionName string), or nullptr for a clean exchange. Transport
  // failures (connection-drop, timeout) additionally report status 0.
  const char* injectedFault = nullptr;
};

// RetrySpec, FetchOutcome and Transport::dispatchWithRetry have no caller
// in the library: they stay only because e2ebench's TimedTransport
// overrides dispatchWithRetry. Delete them with the next benchmark change.
//
// Mirror of browser::RetryPolicy. `retryBudget` is the *remaining* session
// budget.
struct RetrySpec {
  int maxAttempts = 1;
  double initialBackoffMs = 400.0;
  double backoffMultiplier = 2.0;
  double maxBackoffMs = 6400.0;
  double jitterFraction = 0.25;
  std::uint64_t retryBudget = 0;
};

// What a retrying fetch reports back.
struct FetchOutcome {
  Exchange exchange;          // the final attempt
  int attempts = 1;           // dispatches issued (1 = clean first try)
  int retriesUsed = 0;        // attempts beyond the first actually spent
  double totalLatencyMs = 0.0;  // every attempt's round trip plus backoffs
  bool degraded = false;      // every allowed attempt failed
  bool budgetExhausted = false;  // a retry was forgone: retryBudget was empty
  std::string failureReason;  // empty when the final attempt is usable
};

// Why a fetched response cannot be used as-is, or empty if it can: status 0
// names the transport failure via statusText, 5xx reports "http-NNN", and a
// body shorter than its declared Content-Length reports "truncated-body".
// The browser's retry loop classifies every transport's responses with it.
std::string fetchFailureReason(const HttpResponse& response);
// A body shorter than its declared Content-Length — the signature a
// mid-transfer truncation leaves behind.
bool bodyTruncated(const HttpResponse& response);

// --- fault injection, shared by the sim Network and the socket HttpServer.
// The sim applies every effect to its Exchange, the server only those that
// exist on the wire. The sim draws faults from its latency stream, the
// server from a fault-only one; both are hostStreams.

// The per-host stream: forked from `seed`, keyed by host name, so it does
// not depend on registration order or on other hosts' traffic.
util::Pcg32 hostStream(std::uint64_t seed, std::string_view host);
// The installed plan's verdict for `request` to `host`: the request kind
// picks the scope, and only a first attempt claims a new logical index.
const faults::FaultRule* evaluateFault(const faults::PlanSnapshot& plan,
                                       faults::HostFaultState& state,
                                       const HttpRequest& request,
                                       std::string_view host,
                                       util::Pcg32& rng);
// The corrupt-set-cookie effect: garbles every Set-Cookie value with draws
// from `rng`, in header order. False (no draw) when no cookie is set.
bool corruptSetCookies(HttpResponse& response, util::Pcg32& rng);

class Transport {
 public:
  virtual ~Transport() = default;

  // One request, one response. Blocking; safe to call concurrently.
  virtual Exchange dispatch(const HttpRequest& request) = 0;

  // A batch of independent requests. The default runs them sequentially in
  // order — exactly the draws and side effects of a caller-side loop, so
  // the sim stays byte-identical. Socket transports override this to issue
  // the batch as pipelined async fetches over pooled connections; results
  // still come back in request order.
  virtual std::vector<Exchange> dispatchBatch(
      const std::vector<HttpRequest>& requests) {
    std::vector<Exchange> exchanges;
    exchanges.reserve(requests.size());
    for (const HttpRequest& request : requests) {
      exchanges.push_back(dispatch(request));
    }
    return exchanges;
  }

  // True when round trips are real time, so backoffs must be slept. The
  // sim answers false: its backoffs exist only on the virtual clock.
  virtual bool ownsRetryTiming() const { return false; }

  // A single attempt, reported as a FetchOutcome (see RetrySpec above).
  virtual FetchOutcome dispatchWithRetry(const HttpRequest& request,
                                         const RetrySpec& retry) {
    (void)retry;
    FetchOutcome outcome;
    outcome.exchange = dispatch(request);
    outcome.totalLatencyMs = outcome.exchange.latencyMs;
    outcome.failureReason = fetchFailureReason(outcome.exchange.response);
    outcome.degraded = !outcome.failureReason.empty();
    return outcome;
  }
};

}  // namespace cookiepicker::net
