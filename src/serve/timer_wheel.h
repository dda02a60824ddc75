// Hashed timer wheel for the serve event loop.
//
// Deadlines (request timeouts, timeout holds, slow-drip writes) hash
// into fixed-width slots by their tick, so schedule/cancel/expire are O(1)
// amortized no matter how many timers are pending — the classic trade
// against a sorted timer list, which pays O(log n) per operation. The wheel
// keeps no clock of its own: the owner tells it what time it is via
// advanceTo(), which makes it trivially unit-testable (and reusable against
// a virtual clock, though the sim path never needs it). Hidden-fetch
// backoffs never ride the wheel: the browser charges them to its SimClock.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

namespace cookiepicker::serve {

using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class TimerWheel {
 public:
  static constexpr int kSlotBits = 10;
  static constexpr int kSlots = 1 << kSlotBits;  // 1024 slots x 1ms ticks
  static constexpr double kTickMs = 1.0;

  explicit TimerWheel(double nowMs = 0.0);

  // Fires `callback` once `delayMs` has elapsed past the time of the last
  // advanceTo() (or the construction time). Sub-tick delays round up, and a
  // zero delay still waits for the next tick — a timer never fires inside
  // the schedule() call.
  TimerId schedule(double delayMs, std::function<void()> callback);

  // True if the timer was still pending (and is now dead).
  bool cancel(TimerId id);

  // Fires every timer due at or before `nowMs`, in tick order (insertion
  // order within a tick). Callbacks may schedule or cancel timers; a timer
  // scheduled during the sweep whose deadline falls inside it fires in the
  // same sweep. Returns the number fired.
  int advanceTo(double nowMs);

  // Milliseconds from `nowMs` until the earliest pending deadline (zero if
  // overdue), or -1.0 when no timers are pending.
  double msUntilNext(double nowMs) const;

  std::size_t pending() const { return live_; }
  double nowMs() const { return nowMs_; }

 private:
  struct Entry {
    TimerId id = kInvalidTimer;
    std::uint64_t deadlineTick = 0;
    std::function<void()> callback;
  };

  std::array<std::vector<Entry>, kSlots> slots_;
  double nowMs_ = 0.0;
  std::uint64_t currentTick_ = 0;
  TimerId nextId_ = 1;
  std::size_t live_ = 0;
};

}  // namespace cookiepicker::serve
