// e2ebench — the end-to-end benchmark of CookiePicker.
//
//   e2ebench --workload campaign|verdict-mix|wire-fetch --seed N
//            --seconds S --trace 0|1 --run-dir DIR
//
// Prints human summary lines, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics traced. Exit code 0 unless the arguments
// are unusable; wrong outputs show in "correct"/"failed", not the exit code.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

// Confines this thread, and every thread started after it, to one CPU: the
// highest-numbered one this process may use (CPU 0 takes most device
// interrupts). On a shared virtual machine, where threads landed across
// vCPUs made per-request CPU cost bimodal from run to run (about 40 vs
// 65 us per wire fetch); on one CPU it repeats within a few percent. One
// core is also the sizing target the repository's serve bench states.
void pinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int chosen = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) chosen = cpu;
  }
  if (chosen < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(chosen, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    std::fprintf(stderr, "could not pin to CPU %d; running unpinned\n",
                 chosen);
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload campaign|verdict-mix|wire-fetch "
               "--seed N --seconds S --trace 0|1 --run-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--run-dir") {
      options.runDir = value;
    } else {
      return usage();
    }
  }
  if (options.runDir.empty() || !(options.seconds > 0.0)) return usage();
  std::error_code ec;
  std::filesystem::create_directories(options.runDir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", options.runDir.c_str());
    return 2;
  }

  pinToOneCpu();
  e2ebench::RunResult result;
  if (options.workload == "campaign") {
    result = e2ebench::runCampaign(options);
  } else if (options.workload == "verdict-mix") {
    result = e2ebench::runVerdictMix(options);
  } else if (options.workload == "wire-fetch") {
    result = e2ebench::runWireFetch(options);
  } else {
    return usage();
  }
  if (result.attempted == 0) result.fail("no operation was attempted");

  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const std::string& line : result.summary) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("  fail_ratio = %.6f ratio (%llu of %llu)\n",
              result.attempted == 0
                  ? 1.0
                  : static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  for (const e2ebench::Metric& metric : result.metrics) {
    std::printf("  %s = %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  std::printf("%s\n", e2ebench::resultJson(result).c_str());
  std::fflush(stdout);
  return 0;
}
