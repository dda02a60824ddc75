#include "harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2ebench {

namespace detail {
thread_local constinit std::uint64_t t_allocations = 0;
}

Percentile percentileOf(const std::vector<double>& sorted, double p) {
  Percentile out;
  out.samples = sorted.size();
  if (sorted.empty()) return out;
  const double n = static_cast<double>(sorted.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  return out;
}

Percentile percentileUnsorted(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return percentileOf(values, p);
}

std::vector<std::int64_t> fixedRateSchedule(std::size_t count,
                                            double ratePerSecond) {
  std::vector<std::int64_t> due(count, 0);
  if (ratePerSecond <= 0.0) return due;
  for (std::size_t i = 0; i < count; ++i) {
    due[i] = std::llround(static_cast<double>(i) * 1e9 / ratePerSecond);
  }
  return due;
}

void tightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

const char* layerName(Layer layer) {
  switch (layer) {
    case Layer::Op: return "op";
    case Layer::Server: return "server";
    case Layer::Net: return "net";
    case Layer::Browser: return "browser";
    case Layer::Core: return "core";
    case Layer::Store: return "store";
    case Layer::Serve: return "serve";
    case Layer::kCount: break;
  }
  return "?";
}

std::vector<std::int64_t> selfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0 ||
        static_cast<std::size_t>(span.parent) >= spans.size()) {
      continue;
    }
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t start = std::max(span.startNs, parent.startNs);
    const std::int64_t end = std::min(span.endNs, parent.endNs);
    if (end > start) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(start, end);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t runStart = 0;
    std::int64_t runEnd = -1;
    bool open = false;
    for (const auto& [start, end] : intervals) {
      if (!open || start > runEnd) {
        if (open) covered += runEnd - runStart;
        runStart = start;
        runEnd = end;
        open = true;
      } else {
        runEnd = std::max(runEnd, end);
      }
    }
    if (open) covered += runEnd - runStart;
    self[i] = std::max<std::int64_t>(
        0, spans[i].endNs - spans[i].startNs - covered);
  }
  return self;
}

SpanRecorder::ThreadState& SpanRecorder::stateLocked() {
  const std::thread::id id = std::this_thread::get_id();
  for (ThreadState& state : threads_) {
    if (state.id == id) return state;
  }
  threads_.push_back(ThreadState{id, {}});
  return threads_.back();
}

std::int32_t SpanRecorder::open(Layer layer, std::uint32_t op) {
  const std::int64_t start = nowNs();
  std::lock_guard lock(mutex_);
  ThreadState& state = stateLocked();
  Span span;
  span.startNs = start;
  span.layer = layer;
  span.thread = static_cast<std::uint8_t>(&state - threads_.data());
  if (!state.stack.empty()) span.parent = state.stack.back();
  if (op != 0) {
    span.op = op;
  } else if (span.parent >= 0) {
    span.op = spans_[static_cast<std::size_t>(span.parent)].op;
  }
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(span);
  state.stack.push_back(index);
  return index;
}

void SpanRecorder::close(std::int32_t index) {
  const std::int64_t end = nowNs();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(index)].endNs = end;
  ThreadState& state = stateLocked();
  if (!state.stack.empty() && state.stack.back() == index) {
    state.stack.pop_back();
  }
}

std::int32_t SpanRecorder::add(const Span& span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanRecorder::adoptByContainment(Layer childLayer, Layer parentLayer) {
  std::lock_guard lock(mutex_);
  // Candidate parents sorted by start; the innermost container of a start
  // point is the latest-starting candidate that still covers it.
  std::vector<std::int32_t> parents;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].layer == parentLayer) {
      parents.push_back(static_cast<std::int32_t>(i));
    }
  }
  std::sort(parents.begin(), parents.end(), [&](std::int32_t a, std::int32_t b) {
    return spans_[static_cast<std::size_t>(a)].startNs <
           spans_[static_cast<std::size_t>(b)].startNs;
  });
  for (Span& span : spans_) {
    if (span.layer != childLayer || span.parent >= 0) continue;
    auto it = std::upper_bound(
        parents.begin(), parents.end(), span.startNs,
        [&](std::int64_t start, std::int32_t candidate) {
          return start < spans_[static_cast<std::size_t>(candidate)].startNs;
        });
    while (it != parents.begin()) {
      --it;
      const Span& candidate = spans_[static_cast<std::size_t>(*it)];
      if (candidate.thread != span.thread && candidate.endNs >= span.startNs) {
        span.parent = *it;
        span.op = candidate.op;
        break;
      }
      // Parents on one thread do not overlap (the serving thread runs one
      // call at a time), so only the nearest earlier one can contain it.
      if (candidate.thread != span.thread) break;
    }
  }
}

bool SpanRecorder::writeTsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  std::fprintf(file, "index\tparent\top\tthread\tlayer\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%zu\t%d\t%u\t%u\t%s\t%lld\t%lld\n", i, span.parent,
                 span.op, static_cast<unsigned>(span.thread),
                 layerName(span.layer),
                 static_cast<long long>(span.startNs),
                 static_cast<long long>(span.endNs));
  }
  return std::fclose(file) == 0;
}

LayerBudget layerBudget(const std::vector<Span>& spans) {
  LayerBudget budget;
  const std::vector<std::int64_t> self = selfTimesNs(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int layer = static_cast<int>(spans[i].layer);
    budget.selfNs[layer] += self[i];
    ++budget.spans[layer];
    if (spans[i].parent < 0) {
      budget.rootNs += spans[i].endNs - spans[i].startNs;
    }
  }
  return budget;
}

std::string resultJson(const RunResult& result) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    char value[64];
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  return json;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double peakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double processCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace e2ebench
