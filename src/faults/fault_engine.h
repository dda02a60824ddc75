// Per-host fault-plan evaluation, shared by both transports that inject
// faults (the sim net::Network and the socket serve::HttpServer). Each
// keeps one HostFaultState per host, mutated only by that host's requests
// in the host's own order — so schedule cursors and probability draws
// never depend on how other hosts' traffic interleaves. That is what keeps
// a faulty fleet run byte-identical across worker counts.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_plan.h"
#include "util/rng.h"

namespace cookiepicker::faults {

// Actions that replace the exchange outright, before the handler runs.
bool shortCircuits(Action action);

// The installed plan as one request sees it. Holding the snapshot keeps
// the plan (and any rule evaluate() returned from it) alive.
struct PlanSnapshot {
  std::shared_ptr<const FaultPlan> plan;
  std::uint64_t generation = 0;
};

// A transport's installed plan. Each install bumps the generation, which
// the per-host states notice to reset their cursors. A plain mutex: the
// critical section is two pointer-sized copies.
class PlanSlot {
 public:
  // nullptr (or an empty plan) disables injection.
  void install(std::shared_ptr<const FaultPlan> plan);
  PlanSnapshot load() const;

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const FaultPlan> plan_;
  std::uint64_t generation_ = 0;
};

class HostFaultState {
 public:
  // Evaluates the snapshot's plan for one request to `host` and returns
  // the first rule that fires, or nullptr (a null or empty plan touches no
  // cursor and draws nothing). Advances the host's logical index counters
  // (only on first attempts — retries share the original's index) and the
  // per-rule flap cursors. A new generation resets all cursors, so swapping
  // plans mid-run restarts the schedule deterministically.
  const FaultRule* evaluate(const PlanSnapshot& snapshot,
                            std::string_view host, Scope kind,
                            bool firstAttempt, util::Pcg32& rng);

 private:
  std::uint64_t generation_ = ~0ull;
  // Logical (first-attempt) request counts, per scope; slot 0 (Any) counts
  // every kind.
  std::array<std::uint64_t, kScopeCount> logicalIndex_{};
  // Physical matched-request counts, one per plan rule.
  std::vector<std::uint64_t> flapCursor_;
};

// Deterministically garbles a header value using draws from `rng` — the
// "corrupted Set-Cookie" fault. A handful of bytes are overwritten with
// arbitrary printable characters, so the result may fail to parse or parse
// into a different cookie; either way the consumer sees hostile header
// bytes that are a pure function of the host's RNG stream.
std::string corruptHeaderValue(std::string_view value, util::Pcg32& rng);

}  // namespace cookiepicker::faults
