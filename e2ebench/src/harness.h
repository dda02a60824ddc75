// Measurement helpers shared by the e2ebench workloads: percentiles with
// their sample counts, the open-loop arrival schedule, an in-memory span
// recorder with self-time accounting, and the result record every workload
// fills. Nothing here knows about CookiePicker; selftest.cpp covers it.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace e2ebench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- percentiles -----------------------------------------------------------

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // size of the population
  std::size_t beyond = 0;   // samples strictly above the reported rank
};

// Nearest-rank percentile: the smallest sample with at least p% of the
// population at or below it. `sorted` must be ascending; p in (0, 100].
Percentile percentileOf(const std::vector<double>& sorted, double p);

// Sorts a copy, then percentileOf.
Percentile percentileUnsorted(std::vector<double> values, double p);

// --- open-loop schedule ----------------------------------------------------

// Due offsets (ns after the start) of `count` arrivals at a fixed rate:
// arrival i is due at round(i * 1e9 / ratePerSecond). Computed up front so
// the generator never derives the next send time from a completion.
std::vector<std::int64_t> fixedRateSchedule(std::size_t count,
                                            double ratePerSecond);

// Drives a schedule from one thread: sleeps until the next due time and
// then calls `submit(i)` for every arrival already due. Returns each
// arrival's lateness (actual submit time minus due time) in ms.
template <typename Submit>
std::vector<double> runOpenLoop(const std::vector<std::int64_t>& dueOffsets,
                                std::int64_t startNs, Submit&& submit) {
  std::vector<double> lagMs(dueOffsets.size(), 0.0);
  std::size_t next = 0;
  while (next < dueOffsets.size()) {
    const std::int64_t due = startNs + dueOffsets[next];
    std::int64_t now = nowNs();
    if (now < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      now = nowNs();
    }
    while (next < dueOffsets.size() && startNs + dueOffsets[next] <= now) {
      submit(next);
      lagMs[next] =
          static_cast<double>(nowNs() - startNs - dueOffsets[next]) / 1e6;
      ++next;
    }
  }
  return lagMs;
}

// Lowers this thread's timer slack so sleeps wake close to their due time.
void tightenTimerSlack();

// --- spans -----------------------------------------------------------------

// Layers a span can be charged to. Names are the per-layer metric prefixes.
enum class Layer : std::uint8_t {
  Op,         // rounds, sessions, page views, verdicts: not a layer, so
              // their self time is the unattributed residue
  Server,     // origin render (HttpHandler::handle around a site)
  Net,        // transport dispatch
  Browser,    // Browser::visit
  Core,       // CookiePicker::onPageLoaded, enforce, saveState
  Store,      // StateSink::append, shard open/finalize
  Serve,      // a whole fetch through the socket tier
  kCount,
};
const char* layerName(Layer layer);

struct Span {
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int32_t parent = -1;  // index into the same recorder, -1 = root
  std::uint32_t op = 0;      // spans of one page view / verdict share this
  Layer layer = Layer::Op;
  std::uint8_t thread = 0;   // recorder-assigned thread slot
};

// Self time of every span: its duration minus the part of its interval
// covered by the union of its children (children clipped to the parent).
std::vector<std::int64_t> selfTimesNs(const std::vector<Span>& spans);

// Spans from several threads, kept in memory and written out at exit.
// Spans opened on one thread nest through a per-thread open stack; a span
// opened on another thread (an origin render on the tier's loop) is given
// a parent later by adoptByContainment.
class SpanRecorder {
 public:
  // Opens a span on the calling thread; returns its index. `op` 0 inherits
  // the enclosing span's op.
  std::int32_t open(Layer layer, std::uint32_t op = 0);
  void close(std::int32_t index);
  // Records a span timed elsewhere (e.g. from a request's submit to its
  // completion callback on another thread); returns its index.
  std::int32_t add(const Span& span);

  // Parents every root span of `childLayer` to the innermost span of
  // `parentLayer` (on another thread) whose interval contains its start.
  void adoptByContainment(Layer childLayer, Layer parentLayer);

  const std::vector<Span>& spans() const { return spans_; }
  // TSV: index parent op thread layer start_ns end_ns.
  bool writeTsv(const std::string& path) const;

 private:
  struct ThreadState {
    std::thread::id id;
    std::vector<std::int32_t> stack;
  };
  ThreadState& stateLocked();

  std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<ThreadState> threads_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer, std::uint32_t op = 0)
      : recorder_(recorder),
        index_(recorder != nullptr ? recorder->open(layer, op) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  std::int32_t index_;
};

// Per-layer totals over a recorder: self time by layer, span counts, and
// the root (Op) time the layers are charged against.
struct LayerBudget {
  std::int64_t selfNs[static_cast<int>(Layer::kCount)] = {};
  std::size_t spans[static_cast<int>(Layer::kCount)] = {};
  std::int64_t rootNs = 0;  // sum of root span durations
};
LayerBudget layerBudget(const std::vector<Span>& spans);

// --- allocation counting ---------------------------------------------------

// Allocations made by the calling thread so far. Only the traced binary
// links alloc_count.cpp, whose operator new bumps this; in the untraced one
// it stays 0 and allocation costs nothing extra.
namespace detail {
extern thread_local constinit std::uint64_t t_allocations;
}
inline std::uint64_t threadAllocations() { return detail::t_allocations; }

// --- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  // human-readable, printed to stderr
  std::vector<Metric> metrics;        // JSON metrics, in order
  std::vector<std::string> summary;   // human summary lines

  void fail(std::string problem) {
    correct = false;
    if (problems.size() < 20) problems.push_back(std::move(problem));
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string resultJson(const RunResult& result);

// Median of a small sample (set-up repetitions).
double median(std::vector<double> values);

// Peak resident set size of this process so far, in MB.
double peakRssMb();

// User + system CPU seconds this process has used so far.
double processCpuSeconds();

// Seconds between two nowNs() readings.
inline double secondsBetween(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

// --- open-loop runs --------------------------------------------------------

struct OpenLoopRun {
  std::vector<std::int64_t> dueNs;   // absolute due time of each arrival
  std::vector<std::int64_t> doneNs;  // its completion time, 0 if missing
  std::vector<double> lagMs;         // generator lateness per arrival
  std::vector<double> latencyMs;     // completed arrivals, from due time
  double seconds = 0.0;              // first due time to last completion
  double cpuSeconds = 0.0;           // process CPU over the same span
  bool complete = false;             // every reply arrived in time
};

// Sends `count` arrivals at a fixed rate from the calling thread and waits
// up to two minutes for their replies. `send(i, done)` issues arrival i;
// `done()` must run once, on any thread, after its reply is handled.
template <typename Send>
OpenLoopRun driveOpenLoop(std::size_t count, double ratePerSecond,
                          Send&& send) {
  OpenLoopRun run;
  run.doneNs.assign(count, 0);
  std::mutex mutex;
  std::condition_variable allDone;
  std::size_t completed = 0;
  const std::vector<std::int64_t> due = fixedRateSchedule(count, ratePerSecond);
  tightenTimerSlack();
  const double cpu = processCpuSeconds();
  const std::int64_t start = nowNs() + 5'000'000;
  run.lagMs = runOpenLoop(due, start, [&](std::size_t i) {
    send(i, [&run, &mutex, &allDone, &completed, count, i]() {
      run.doneNs[i] = nowNs();
      std::lock_guard lock(mutex);
      if (++completed == count) allDone.notify_all();
    });
  });
  {
    std::unique_lock lock(mutex);
    run.complete = allDone.wait_for(lock, std::chrono::seconds(120),
                                    [&]() { return completed == count; });
  }
  run.cpuSeconds = processCpuSeconds() - cpu;
  std::int64_t last = start;
  for (std::size_t i = 0; i < count; ++i) {
    run.dueNs.push_back(start + due[i]);
    if (run.doneNs[i] == 0) continue;
    last = std::max(last, run.doneNs[i]);
    run.latencyMs.push_back(static_cast<double>(run.doneNs[i] - start -
                                                due[i]) / 1e6);
  }
  run.seconds = secondsBetween(start, last);
  return run;
}

}  // namespace e2ebench
