// Self-tests for the benchmark's own helpers: percentiles with their sample
// counts, the open-loop schedule, and self time on hand-built span trees.
// run.py runs this before every workload; any failure stops the run.
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using e2ebench::Layer;
using e2ebench::Span;

Span span(std::int64_t start, std::int64_t end, std::int32_t parent,
          Layer layer, std::uint8_t thread = 0) {
  Span s;
  s.startNs = start;
  s.endNs = end;
  s.parent = parent;
  s.layer = layer;
  s.thread = thread;
  return s;
}

void testPercentiles() {
  using e2ebench::percentileOf;
  using e2ebench::percentileUnsorted;
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  const auto p50 = percentileOf(hundred, 50.0);
  check(near(p50.value, 50.0) && p50.samples == 100 && p50.beyond == 50,
        "p50 of 1..100 is 50 with 50 beyond");
  const auto p99 = percentileOf(hundred, 99.0);
  check(near(p99.value, 99.0) && p99.beyond == 1, "p99 of 1..100 is 99");
  const auto p100 = percentileOf(hundred, 100.0);
  check(near(p100.value, 100.0) && p100.beyond == 0, "p100 is the maximum");

  std::vector<double> thousand;
  for (int i = 1000; i >= 1; --i) thousand.push_back(i);  // unsorted input
  const auto t99 = percentileUnsorted(thousand, 99.0);
  check(near(t99.value, 990.0) && t99.samples == 1000 && t99.beyond == 10,
        "p99 of 1000 samples leaves exactly 10 beyond");

  const auto one = percentileOf({7.5}, 99.0);
  check(near(one.value, 7.5) && one.samples == 1 && one.beyond == 0,
        "a single sample is every percentile");
  const auto none = percentileOf({}, 50.0);
  check(none.samples == 0 && near(none.value, 0.0), "empty input counts 0");
  const auto odd = percentileOf({1.0, 2.0, 3.0}, 50.0);
  check(near(odd.value, 2.0) && odd.beyond == 1, "p50 of three is the middle");

  check(near(e2ebench::median({3.0, 1.0, 2.0}), 2.0), "median of three");
  check(near(e2ebench::median({4.0, 1.0, 2.0, 3.0}), 2.5), "median of four");
}

void testSchedule() {
  const auto due = e2ebench::fixedRateSchedule(5, 1000.0);
  check(due.size() == 5, "schedule has one due time per arrival");
  bool spaced = true;
  for (std::size_t i = 0; i < due.size(); ++i) {
    spaced = spaced && due[i] == static_cast<std::int64_t>(i) * 1'000'000;
  }
  check(spaced, "1000/s arrivals are due every 1 ms from 0");
  const auto thirds = e2ebench::fixedRateSchedule(4, 3.0);
  check(thirds[1] == 333'333'333 && thirds[2] == 666'666'667 &&
            thirds[3] == 1'000'000'000,
        "due times round to the nearest ns without drift");

  // The generator submits in due order and never early.
  const auto gaps = e2ebench::fixedRateSchedule(20, 20000.0);
  std::vector<std::int64_t> submitted;
  const std::int64_t start = e2ebench::nowNs() + 1'000'000;
  const auto lag = e2ebench::runOpenLoop(gaps, start, [&](std::size_t i) {
    submitted.push_back(e2ebench::nowNs() - start - gaps[i]);
  });
  bool onTime = submitted.size() == gaps.size() && lag.size() == gaps.size();
  for (std::size_t i = 0; onTime && i < submitted.size(); ++i) {
    onTime = submitted[i] >= 0 && lag[i] >= 0.0;
  }
  check(onTime, "open loop submits every arrival at or after its due time");

  // driveOpenLoop times each arrival from its due time; replies may come
  // from any thread.
  std::vector<std::thread> repliers;
  const auto run = e2ebench::driveOpenLoop(
      10, 5000.0, [&](std::size_t, auto done) {
        repliers.emplace_back([done]() { done(); });
      });
  for (std::thread& replier : repliers) replier.join();
  bool timed = run.complete && run.latencyMs.size() == 10 &&
               run.dueNs.size() == 10 && run.dueNs[1] - run.dueNs[0] == 200'000;
  for (std::size_t i = 0; timed && i < 10; ++i) {
    timed = run.doneNs[i] >= run.dueNs[i] && run.latencyMs[i] >= 0.0;
  }
  check(timed, "driven open loop times every reply from its due time");
}

void testSelfTimes() {
  // root [0,100) with children a [10,40) and b [30,60) overlapping, and a
  // grandchild c [15,25) under a; d [90,120) pokes past the root's end.
  const std::vector<Span> tree = {
      span(0, 100, -1, Layer::Op),      // 0
      span(10, 40, 0, Layer::Browser),  // 1
      span(30, 60, 0, Layer::Core),     // 2
      span(15, 25, 1, Layer::Net),      // 3
      span(90, 120, 0, Layer::Store),   // 4
  };
  const auto self = e2ebench::selfTimesNs(tree);
  check(self[0] == 100 - 50 - 10, "root self excludes the union of children");
  check(self[1] == 30 - 10, "child self excludes its grandchild");
  check(self[2] == 30 && self[3] == 10 && self[4] == 30,
        "leaves keep their whole duration");

  const auto budget = e2ebench::layerBudget(tree);
  check(budget.rootNs == 100, "root time is the root's duration");
  check(budget.selfNs[static_cast<int>(Layer::Op)] == 40 &&
            budget.selfNs[static_cast<int>(Layer::Browser)] == 20 &&
            budget.spans[static_cast<int>(Layer::Net)] == 1,
        "budget sums self time per layer");

  // Spans opened on another thread find their parent by containment.
  e2ebench::SpanRecorder recorder;
  recorder.add(span(0, 50, -1, Layer::Net, 0));
  recorder.add(span(60, 90, -1, Layer::Net, 0));
  recorder.add(span(65, 70, -1, Layer::Server, 1));
  recorder.add(span(52, 55, -1, Layer::Server, 1));  // between dispatches
  recorder.adoptByContainment(Layer::Server, Layer::Net);
  const auto& adopted = recorder.spans();
  check(adopted[2].parent == 1, "render inside a dispatch is adopted by it");
  check(adopted[3].parent == -1, "render outside every dispatch stays root");

  // The recorder nests spans opened on one thread.
  e2ebench::SpanRecorder nested;
  {
    e2ebench::ScopedSpan outer(&nested, Layer::Op, 7);
    e2ebench::ScopedSpan inner(&nested, Layer::Net);
  }
  check(nested.spans().size() == 2 && nested.spans()[1].parent == 0 &&
            nested.spans()[1].op == 7,
        "a nested span records its parent and inherits the op id");
}

void testResultJson() {
  e2ebench::RunResult result;
  result.attempted = 3;
  result.add("latency_p50_ms", 1.25, "ms");
  const std::string json = e2ebench::resultJson(result);
  check(json == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                "\"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, "
                "\"unit\": \"ms\"}}}",
        "result JSON has exactly the contract's keys");
}

}  // namespace

int main() {
  testPercentiles();
  testSchedule();
  testSelfTimes();
  testResultJson();
  if (failures == 0) std::fprintf(stderr, "selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
