// Shared by the workloads: the end-to-end and per-layer metric lists, the
// outside-in tracing wrappers, and the reruns of the html, cookies and core
// layers on captured bytes.
#include <algorithm>
#include <cstdio>

#include "cookies/jar.h"
#include "core/cvce.h"
#include "core/decision.h"
#include "core/rstm.h"
#include "html/stream_snapshot.h"
#include "net/cookie_parse.h"
#include "util/clock.h"
#include "workloads.h"

namespace e2ebench {

namespace cp = cookiepicker;

void addEndToEnd(RunResult& result, const EndToEnd& e2e) {
  std::vector<double> sorted = e2e.latenciesMs;
  std::sort(sorted.begin(), sorted.end());
  result.add("setup_s", e2e.setupSeconds, "s");
  result.add("peak_rss_mb", e2e.peakRssMb, "MB");
  result.add("pages_per_s", e2e.pagesPerSecond, "1/s");
  result.add("cpu_us_per_page", e2e.cpuUsPerPage, "us");
  for (const double p : {50.0, 90.0, 99.0}) {
    const Percentile q = percentileOf(sorted, p);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s_p%.0f_ms = %.4f ms (n=%zu, %zu beyond)%s",
                  e2e.latencyName, p, q.value, q.samples, q.beyond,
                  q.beyond < 10 ? " unresolved: fewer than 10 beyond" : "");
    result.summary.emplace_back(line);
  }
}

void addLatencyLayers(const std::vector<double>& latenciesMs,
                      LayerValues& values) {
  std::vector<double> sorted = latenciesMs;
  std::sort(sorted.begin(), sorted.end());
  values["bench.latency_p50_ms"] = percentileOf(sorted, 50.0).value;
  values["bench.latency_p90_ms"] = percentileOf(sorted, 90.0).value;
  values["bench.latency_p99_ms"] = percentileOf(sorted, 99.0).value;
  values["bench.latency_samples"] = static_cast<double>(sorted.size());
}

void checkGenerator(const char* workload, const std::vector<double>& lagMs,
                    RunResult& result) {
  std::vector<double> sorted = lagMs;
  std::sort(sorted.begin(), sorted.end());
  const double p50 = percentileOf(sorted, 50.0).value;
  const double p99 = percentileOf(sorted, 99.0).value;
  char line[160];
  std::snprintf(line, sizeof(line),
                "generator lag p50 %.4f ms, p99 %.4f ms over %zu arrivals",
                p50, p99, sorted.size());
  result.summary.emplace_back(line);
  if (p50 > 0.5 || p99 > 50.0) {
    result.fail(std::string(workload) + ": generator fell behind (" + line +
                "); run invalid");
  }
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order. BENCHMARK.json lists the same.
constexpr LayerMetric kLayerMetrics[] = {
    {"server.render_us", "us"},
    {"server.renders_per_page", "count"},
    {"server.bytes_per_render", "B"},
    {"net.dispatch_self_us", "us"},
    {"net.requests_per_page", "count"},
    {"net.bytes_per_page", "B"},
    {"browser.visit_self_us", "us"},
    {"browser.hidden_fetch_self_us", "us"},
    {"html.snapshot_us", "us"},
    {"html.allocs_per_snapshot", "count"},
    {"cookies.setcookie_parse_us", "us"},
    {"cookies.jar_store_us", "us"},
    {"core.step_self_us", "us"},
    {"core.rstm_us", "us"},
    {"core.cvce_us", "us"},
    {"core.decision_us", "us"},
    {"core.hidden_per_page", "count"},
    {"core.confirm_strips_per_verdict", "count"},
    {"store.append_us", "us"},
    {"store.appends_per_page", "count"},
    {"store.bytes_per_page", "B"},
    {"knowledge.warm_ratio", "ratio"},
    {"knowledge.warm_verdict_us", "us"},
    {"knowledge.cold_verdict_us", "us"},
    {"knowledge.hidden_per_verdict", "count"},
    {"serve.handler_us", "us"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.transport_wait_us", "us"},
    {"serve.dispatches", "count"},
    {"serve.reuse_ratio", "ratio"},
    {"serve.connections_opened", "count"},
    {"serve.retries", "count"},
    {"serve.drops", "count"},
    {"serve.timeouts", "count"},
    {"serve.parse_errors", "count"},
    {"bench.latency_p50_ms", "ms"},
    {"bench.latency_p90_ms", "ms"},
    {"bench.latency_p99_ms", "ms"},
    {"bench.latency_samples", "count"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"bench.unattributed_share", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

}  // namespace

std::size_t responseBytes(const cp::net::HttpResponse& response) {
  std::size_t bytes = response.body.size();
  for (const auto& entry : response.headers.entries()) {
    bytes += entry.name.size() + entry.value.size() + 4;  // ": " + CRLF
  }
  return bytes;
}

void emitPerLayer(RunResult& result, const LayerValues& values) {
  for (const LayerMetric& metric : kLayerMetrics) {
    const auto it = values.find(metric.name);
    result.add(metric.name, it == values.end() ? 0.0 : it->second,
               metric.unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetric& metric : kLayerMetrics) {
      known = known || name == metric.name;
    }
    if (!known) result.fail("internal: unlisted per-layer metric " + name);
  }
}

// --- wrappers ----------------------------------------------------------------

cp::net::HttpResponse TimedHandler::handle(
    const cp::net::HttpRequest& request) {
  ScopedSpan span(spans_, Layer::Server);
  cp::net::HttpResponse response = inner_->handle(request);
  if (counting.load(std::memory_order_relaxed)) {
    renders.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(responseBytes(response), std::memory_order_relaxed);
  }
  return response;
}

cp::net::Exchange TimedTransport::dispatch(
    const cp::net::HttpRequest& request) {
  cp::net::Exchange exchange;
  {
    ScopedSpan span(spans_, Layer::Net);
    exchange = inner_.dispatch(request);
  }
  observe(request, exchange);
  return exchange;
}

std::vector<cp::net::Exchange> TimedTransport::dispatchBatch(
    const std::vector<cp::net::HttpRequest>& requests) {
  std::vector<cp::net::Exchange> exchanges;
  {
    ScopedSpan span(spans_, Layer::Net);
    exchanges = inner_.dispatchBatch(requests);
  }
  for (std::size_t i = 0; i < requests.size() && i < exchanges.size(); ++i) {
    observe(requests[i], exchanges[i]);
  }
  return exchanges;
}

cp::net::FetchOutcome TimedTransport::dispatchWithRetry(
    const cp::net::HttpRequest& request, const cp::net::RetrySpec& retry) {
  cp::net::FetchOutcome outcome;
  {
    ScopedSpan span(spans_, Layer::Net);
    outcome = inner_.dispatchWithRetry(request, retry);
  }
  observe(request, outcome.exchange);
  return outcome;
}

void TimedTransport::observe(const cp::net::HttpRequest& request,
                             const cp::net::Exchange& exchange) {
  using cp::net::RequestKind;
  const bool firstAttempt = request.attempt == 0;
  ++totalRequests;
  if (request.kind == RequestKind::Hidden && firstAttempt) {
    lastHidden = exchange;
  }
  if (request.kind == RequestKind::Container && firstAttempt) {
    hiddenThisPage_ = 0;
  }
  if (counting) {
    ++counts.requests;
    counts.bytes += exchange.requestBytes + exchange.responseBytes;
    if (request.kind == RequestKind::Hidden && firstAttempt) {
      ++counts.hiddenFirstAttempts;
      if (hiddenThisPage_ > 0) ++counts.confirmStrips;
    }
  }
  if (request.kind == RequestKind::Hidden && firstAttempt) ++hiddenThisPage_;

  const cp::net::HttpResponse& response = exchange.response;
  if (response.status != 200) return;
  Capture& c = capture;
  if (request.kind != RequestKind::Hidden && c.setCookies.size() < Capture::kLimit) {
    std::vector<std::string> headers = response.setCookieHeaders();
    if (!headers.empty()) {
      c.setCookies.push_back({request.url, std::move(headers)});
    }
  }
  if (request.kind == RequestKind::Subresource) return;
  if (c.bodies.size() < Capture::kLimit) c.bodies.push_back(response.body);
  if (c.pairs.size() >= Capture::kLimit) {
    c.lastContainer.clear();
    return;
  }
  const std::string url = request.url.toString();
  if (request.kind == RequestKind::Container) {
    c.lastContainer[url] = response.body;
  } else if (const auto it = c.lastContainer.find(url);
             it != c.lastContainer.end()) {
    c.pairs.push_back({it->second, response.body});
  }
}

void TimedSink::append(cp::store::RecordType type, std::string_view body) {
  {
    ScopedSpan span(spans_, Layer::Store);
    inner_->append(type, body);
  }
  ++appends;
  bytes += body.size();
}

// --- reruns ------------------------------------------------------------------

namespace {

// Runs `body` over every item `rounds` times and returns ns per item.
template <typename Items, typename Body>
double nsPerItem(const Items& items, int rounds, Body&& body) {
  if (items.empty()) return 0.0;
  const std::int64_t start = nowNs();
  for (int round = 0; round < rounds; ++round) {
    for (const auto& item : items) body(item);
  }
  return static_cast<double>(nowNs() - start) /
         static_cast<double>(items.size() * static_cast<std::size_t>(rounds));
}

}  // namespace

void rerunCapturedLayers(const Capture& capture, LayerValues& values) {
  constexpr int kRounds = 3;

  // html: tokenize→snapshot on every captured container / hidden body, with
  // one builder reused the way the browser reuses its own.
  cp::html::StreamingSnapshotBuilder builder;
  for (const std::string& body : capture.bodies) builder.build(body);  // warm
  const std::uint64_t allocsBefore = threadAllocations();
  const double snapshotNs = nsPerItem(
      capture.bodies, kRounds,
      [&](const std::string& body) { builder.build(body); });
  const std::uint64_t allocs = threadAllocations() - allocsBefore;
  values["html.snapshot_us"] = snapshotNs / 1e3;
  values["html.allocs_per_snapshot"] =
      capture.bodies.empty()
          ? 0.0
          : static_cast<double>(allocs) /
                static_cast<double>(capture.bodies.size() * kRounds);

  // cookies: Set-Cookie parse, then store into a fresh jar per response.
  std::size_t headerCount = 0;
  for (const auto& entry : capture.setCookies) {
    headerCount += entry.headers.size();
  }
  std::int64_t parseNs = 0;
  std::int64_t storeNs = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const auto& entry : capture.setCookies) {
      std::vector<cp::net::SetCookie> parsed;
      const std::int64_t t0 = nowNs();
      for (const std::string& header : entry.headers) {
        if (auto cookie = cp::net::parseSetCookie(header)) {
          parsed.push_back(std::move(*cookie));
        }
      }
      const std::int64_t t1 = nowNs();
      cp::cookies::CookieJar jar;
      for (const cp::net::SetCookie& cookie : parsed) {
        jar.store(cookie, entry.url, true,
                  cp::util::SimClock::kDefaultStartMs);
      }
      storeNs += nowNs() - t1;
      parseNs += t1 - t0;
    }
  }
  values["cookies.setcookie_parse_us"] =
      usPer(parseNs, headerCount * kRounds);
  values["cookies.jar_store_us"] = usPer(storeNs, headerCount * kRounds);

  // core: the detection step on each captured regular/hidden pair.
  struct SnapshotPair {
    std::shared_ptr<const cookiepicker::dom::TreeSnapshot> regular;
    std::shared_ptr<const cookiepicker::dom::TreeSnapshot> hidden;
  };
  std::vector<SnapshotPair> pairs;
  for (const Capture::Pair& pair : capture.pairs) {
    pairs.push_back({builder.build(pair.regular).snapshot,
                     builder.build(pair.hidden).snapshot});
  }
  cp::core::DetectionScratch scratch;
  const cp::core::DecisionConfig config;
  double sink = 0.0;
  values["core.decision_us"] =
      nsPerItem(pairs, kRounds, [&](const SnapshotPair& p) {
        sink += cp::core::decideCookieUsefulness(*p.regular, *p.hidden,
                                                 scratch, config)
                    .treeSim;
      }) / 1e3;
  values["core.rstm_us"] =
      nsPerItem(pairs, kRounds, [&](const SnapshotPair& p) {
        sink += cp::core::nTreeSim(*p.regular, p.regular->comparisonRootIndex(),
                                   *p.hidden, p.hidden->comparisonRootIndex(),
                                   scratch.rstm, config.maxLevel);
      }) / 1e3;
  values["core.cvce_us"] =
      nsPerItem(pairs, kRounds, [&](const SnapshotPair& p) {
        cp::core::extractContextContentFeatures(
            *p.regular, p.regular->comparisonRootIndex(), config.cvce,
            scratch.cvce, scratch.regularFeatures);
        cp::core::extractContextContentFeatures(
            *p.hidden, p.hidden->comparisonRootIndex(), config.cvce,
            scratch.cvce, scratch.hiddenFeatures);
        sink += cp::core::nTextSim(scratch.regularFeatures,
                                   scratch.hiddenFeatures, scratch.cvce,
                                   config.sameContextCredit);
      }) / 1e3;
  if (sink < 0.0) std::fprintf(stderr, "impossible similarity\n");
}

}  // namespace e2ebench
