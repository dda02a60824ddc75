// The three e2ebench workloads and what they share: run options, the
// end-to-end and per-layer metric lists, and the tracing wrappers that time
// calls into the library's public seams (HttpHandler, Transport, StateSink)
// from outside. Nothing here adds spans inside the library.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "net/http.h"
#include "net/transport.h"
#include "store/state_sink.h"

namespace e2ebench {

namespace net = cookiepicker::net;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string runDir;  // scratch for state stores and span dumps
};

RunResult runCampaign(const Options& options);
RunResult runVerdictMix(const Options& options);
RunResult runWireFetch(const Options& options);

// How many times every workload builds its world to report setup_s.
inline constexpr int kSetupRepeats = 9;

// End-to-end metrics, reported by every untraced run. Latencies are
// printed (p50, p90, p99 with sample counts) but not reported as metrics:
// on a shared virtual machine host stalls swing them several fold between
// runs of the same code, while throughput and CPU per page stay within
// about ten percent.
struct EndToEnd {
  double setupSeconds = 0.0;
  double peakRssMb = 0.0;
  double pagesPerSecond = 0.0;
  double cpuUsPerPage = 0.0;        // process CPU time per page view
  std::vector<double> latenciesMs;  // the workload's unit of work
  const char* latencyName = "latency";  // summary-line prefix
};
void addEndToEnd(RunResult& result, const EndToEnd& e2e);

// Per-layer values by metric name; emitPerLayer writes every metric of the
// canonical list (0 where a layer does not run in this workload).
using LayerValues = std::map<std::string, double>;
void emitPerLayer(RunResult& result, const LayerValues& values);

// The traced pass's latencies as bench.latency_p50_ms / _p90_ms / _p99_ms
// and bench.latency_samples.
void addLatencyLayers(const std::vector<double>& latenciesMs,
                      LayerValues& values);

// Marks the run invalid when the open-loop generator fell behind its
// schedule: a median lateness above 0.5 ms means it could not keep the
// rate, a p99 above 50 ms means it stalled outright. Shorter hiccups are
// machine stalls the system under test saw too; they stay in the
// latencies, which are timed from each request's due time.
void checkGenerator(const char* workload, const std::vector<double>& lagMs,
                    RunResult& result);

// --- tracing wrappers --------------------------------------------------------

// What a traced transport saw, for counts and for rerunning the html,
// cookies and core layers on real response bytes after the pass.
struct Capture {
  struct SetCookies {
    net::Url url;
    std::vector<std::string> headers;
  };
  struct Pair {  // a container page and the hidden copy that followed it
    std::string regular;
    std::string hidden;
  };
  static constexpr std::size_t kLimit = 400;  // items kept per kind
  std::vector<std::string> bodies;
  std::vector<SetCookies> setCookies;
  std::vector<Pair> pairs;
  std::map<std::string, std::string> lastContainer;  // url → body
};

// Counters a traced transport keeps; `counting` gates them so only a fixed
// prefix of the work (which repeats exactly for a seed) is counted.
struct TransportCounts {
  std::uint64_t requests = 0;
  std::uint64_t bytes = 0;
  std::uint64_t hiddenFirstAttempts = 0;
  std::uint64_t confirmStrips = 0;  // hidden fetches beyond a page's first
};

// Times every HttpHandler::handle call as a Server span.
class TimedHandler : public net::HttpHandler {
 public:
  TimedHandler(std::shared_ptr<net::HttpHandler> inner, SpanRecorder* spans)
      : inner_(std::move(inner)), spans_(spans) {}
  net::HttpResponse handle(const net::HttpRequest& request) override;

  std::atomic<bool> counting{true};
  std::atomic<std::uint64_t> renders{0};
  std::atomic<std::uint64_t> bytes{0};

 private:
  std::shared_ptr<net::HttpHandler> inner_;
  SpanRecorder* spans_;
};

// Times every dispatch into the wrapped transport as a Net span and
// records counts and captures.
class TimedTransport : public net::Transport {
 public:
  TimedTransport(net::Transport& inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}
  net::Exchange dispatch(const net::HttpRequest& request) override;
  std::vector<net::Exchange> dispatchBatch(
      const std::vector<net::HttpRequest>& requests) override;
  bool ownsRetryTiming() const override { return inner_.ownsRetryTiming(); }
  net::FetchOutcome dispatchWithRetry(const net::HttpRequest& request,
                                      const net::RetrySpec& retry) override;

  bool counting = true;
  TransportCounts counts;
  Capture capture;
  std::uint64_t totalRequests = 0;  // every request, counting or not
  // The latest first-attempt hidden exchange, for the hidden-fetch rerun.
  std::optional<net::Exchange> lastHidden;

 private:
  void observe(const net::HttpRequest& request, const net::Exchange& exchange);

  net::Transport& inner_;
  SpanRecorder* spans_;
  std::uint64_t hiddenThisPage_ = 0;
};

// Times every append into the wrapped sink as a Store span.
class TimedSink : public cookiepicker::store::StateSink {
 public:
  TimedSink(cookiepicker::store::StateSink* inner, SpanRecorder* spans)
      : inner_(inner), spans_(spans) {}
  void append(cookiepicker::store::RecordType type,
              std::string_view body) override;

  std::uint64_t appends = 0;
  std::uint64_t bytes = 0;

 private:
  cookiepicker::store::StateSink* inner_;
  SpanRecorder* spans_;
};

// Reruns the html, cookies and core layers on captured bytes and stores
// html.snapshot_us, html.allocs_per_snapshot, cookies.setcookie_parse_us,
// cookies.jar_store_us, core.rstm_us, core.cvce_us and core.decision_us.
void rerunCapturedLayers(const Capture& capture, LayerValues& values);

// Wire size of a response's headers and body (status line excluded).
std::size_t responseBytes(const net::HttpResponse& response);

// Microseconds per item, 0 when there are no items.
inline double usPer(std::int64_t ns, std::uint64_t items) {
  return items == 0 ? 0.0 : static_cast<double>(ns) / 1e3 /
                                static_cast<double>(items);
}
inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace e2ebench
