// Event-loop HTTP/1.1 server with socket-layer fault injection.
//
// One HttpServer binds one loopback listener on one EventLoop and serves
// every host routed to it (the OriginTier shards hosts across servers and
// routes by Host header). Connections are keep-alive by default and
// process pipelined requests strictly in order.
//
// The same faults::FaultPlan rules the sim Network evaluates are applied
// here — but at the socket layer, where they belong in a real deployment:
//
//  * server-error     → synthetic 5xx written back, handler never runs,
//                       the sim's page (net::HttpResponse::serverError)
//  * connection-drop  → TCP close before any response bytes; pipelined
//                       requests buffered behind the dropped one are
//                       discarded unevaluated (the client re-sends them on
//                       a fresh connection, so each logical request meets
//                       the fault schedule exactly once — as in the sim)
//  * timeout          → the connection goes silent for extra-ms, then
//                       closes; the client's deadline usually fires first
//  * truncate-body    → Content-Length declares the uncut size, the body
//                       stops early, and the connection closes — the wire
//                       shape of a mid-transfer cut
//  * corrupt-set-cookie → Set-Cookie values garbled with the host's RNG
//                       (net::corruptSetCookies, as in the sim)
//  * slow-drip        → the response trickles out as four chunked pieces
//                       on wheel timers spread over extra-ms
//
// The fault decision is the sim's (net::evaluateFault over a PlanSlot), and
// like the sim, fault schedules are per host: each host's cursors advance
// only with that host's requests, in arrival order on its (single) loop
// thread — no locks needed, same determinism story.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "faults/fault_engine.h"
#include "faults/fault_plan.h"
#include "net/http.h"
#include "net/transport.h"
#include "serve/buffered_socket.h"
#include "serve/event_loop.h"
#include "serve/http1.h"
#include "util/rng.h"

namespace cookiepicker::serve {

// Resolves a Host header (lowercased, port stripped) to its handler, or
// nullptr for 404. Called on the loop thread only.
using HostRouter = std::function<net::HttpHandler*(const std::string& host)>;

struct HttpServerConfig {
  Http1Limits limits;
};

struct HttpServerStats {
  std::uint64_t connectionsAccepted = 0;
  std::uint64_t requestsServed = 0;
  std::uint64_t faultsInjected = 0;
  std::uint64_t parseErrors = 0;
};

class HttpServer {
 public:
  HttpServer(EventLoop& loop, HostRouter router, std::uint64_t seed,
             HttpServerConfig config = {});
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral) and registers the listener with
  // the loop. Call before the loop starts running (or from its thread).
  // Returns the bound port.
  std::uint16_t listen(std::uint16_t port = 0);

  // Thread-safe; applies to requests parsed after the swap.
  void setFaultPlan(std::shared_ptr<const faults::FaultPlan> plan);

  // Loop thread (or post-stop) only.
  HttpServerStats stats() const { return stats_; }

 private:
  struct Connection {
    std::uint64_t id = 0;
    BufferedSocket socket;
    RequestParser parser;
    std::deque<ParsedRequest> pending;
    // A timeout hold or slow-drip is in progress; later pipelined requests
    // wait in `pending` so responses keep request order.
    bool busy = false;
    bool closing = false;        // close once the outbox flushes
    bool writableArmed = false;
    explicit Connection(int fd, Http1Limits limits)
        : socket(fd), parser(limits) {}
  };

  void onAcceptable();
  void onConnectionEvent(int fd, std::uint64_t id, std::uint32_t events);
  void parseAndPump(Connection* conn);
  void pump(Connection* conn);
  void serveOne(Connection* conn, const ParsedRequest& parsed);
  void finishWrite(Connection* conn);
  void closeConnection(Connection* conn);
  Connection* findConnection(int fd, std::uint64_t id);

  struct HostFaults {
    faults::HostFaultState state;
    util::Pcg32 rng;
  };
  HostFaults& faultsFor(const std::string& host);

  EventLoop& loop_;
  HostRouter router_;
  std::uint64_t seed_;
  HttpServerConfig config_;
  int listenFd_ = -1;
  std::uint64_t nextConnectionId_ = 1;
  // Wheel timers (timeout holds, slow-drips) capture a weak_ptr to this
  // token and no-op once the destructor resets it, so a timer outliving
  // the server on a still-running loop cannot touch freed state.
  std::shared_ptr<char> aliveToken_ = std::make_shared<char>(0);
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::unordered_map<std::string, HostFaults> hostFaults_;
  faults::PlanSlot faultPlan_;

  HttpServerStats stats_;
};

}  // namespace cookiepicker::serve
