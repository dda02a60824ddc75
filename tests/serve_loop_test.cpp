// Timer wheel and event loop unit tests.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "serve/buffered_socket.h"
#include "serve/event_loop.h"
#include "serve/timer_wheel.h"

namespace cookiepicker::serve {
namespace {

TEST(TimerWheel, FiresInDeadlineOrder) {
  TimerWheel wheel(0.0);
  std::vector<int> order;
  wheel.schedule(30.0, [&] { order.push_back(3); });
  wheel.schedule(10.0, [&] { order.push_back(1); });
  wheel.schedule(20.0, [&] { order.push_back(2); });
  EXPECT_EQ(wheel.pending(), 3u);
  wheel.advanceTo(9.0);
  EXPECT_TRUE(order.empty());
  wheel.advanceTo(25.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  wheel.advanceTo(31.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, InsertionOrderWithinOneTick) {
  TimerWheel wheel(0.0);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    wheel.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  wheel.advanceTo(10.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimerWheel, CancelPreventsFiring) {
  TimerWheel wheel(0.0);
  int fired = 0;
  const TimerId keep = wheel.schedule(10.0, [&] { ++fired; });
  const TimerId drop = wheel.schedule(10.0, [&] { ++fired; });
  EXPECT_TRUE(wheel.cancel(drop));
  EXPECT_FALSE(wheel.cancel(drop));  // already dead
  wheel.advanceTo(20.0);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(wheel.cancel(keep));  // already fired
}

TEST(TimerWheel, CallbackReschedulesRelativeToSweepNow) {
  TimerWheel wheel(0.0);
  std::vector<int> fired;
  wheel.schedule(5.0, [&] {
    fired.push_back(1);
    // Reschedules are relative to the sweep's real `now` (50), not the
    // firing timer's deadline — a late timer's chained follow-up should
    // not also be late.
    wheel.schedule(5.0, [&] { fired.push_back(2); });
  });
  wheel.advanceTo(50.0);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  wheel.advanceTo(54.0);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  wheel.advanceTo(56.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(TimerWheel, WrapsAroundTheWheelHorizon) {
  TimerWheel wheel(0.0);
  int fired = 0;
  // Far beyond kSlots ticks: lands in a slot it shares with near timers.
  wheel.schedule(TimerWheel::kSlots * 3.5 * TimerWheel::kTickMs,
                 [&] { ++fired; });
  wheel.schedule(1.0, [&] { ++fired; });
  wheel.advanceTo(TimerWheel::kSlots * 1.0);
  EXPECT_EQ(fired, 1);
  wheel.advanceTo(TimerWheel::kSlots * 4.0);
  EXPECT_EQ(fired, 2);
}

TEST(TimerWheel, MsUntilNextTracksEarliestDeadline) {
  TimerWheel wheel(0.0);
  EXPECT_LT(wheel.msUntilNext(0.0), 0.0);
  wheel.schedule(500.0, [] {});
  wheel.schedule(40.0, [] {});
  const double next = wheel.msUntilNext(0.0);
  EXPECT_GE(next, 39.0);
  EXPECT_LE(next, 41.0);
  wheel.advanceTo(100.0);
  const double later = wheel.msUntilNext(100.0);
  EXPECT_GE(later, 399.0);
  EXPECT_LE(later, 401.0);
}

TEST(TimerWheel, LongIdleGapSkipsCheaply) {
  TimerWheel wheel(0.0);
  wheel.advanceTo(1e9);  // an hour-scale jump with no timers must not hang
  int fired = 0;
  wheel.schedule(1.0, [&] { ++fired; });
  wheel.advanceTo(1e9 + 10.0);
  EXPECT_EQ(fired, 1);
}

TEST(EventLoop, PostRunsOnLoopThread) {
  EventLoop loop;
  std::thread runner([&] { loop.run(); });
  std::promise<bool> ran;
  loop.post([&] { ran.set_value(loop.inLoopThread()); });
  EXPECT_TRUE(ran.get_future().get());
  loop.stop();
  runner.join();
}

TEST(EventLoop, TimersFireInRealTime) {
  EventLoop loop;
  std::thread runner([&] { loop.run(); });
  std::promise<double> fired;
  const double start = EventLoop::monotonicMs();
  loop.post([&] {
    loop.runAfter(30.0, [&] { fired.set_value(EventLoop::monotonicMs()); });
  });
  const double at = fired.get_future().get();
  EXPECT_GE(at - start, 25.0);
  loop.stop();
  runner.join();
}

TEST(EventLoop, CancelAcrossPost) {
  EventLoop loop;
  std::thread runner([&] { loop.run(); });
  std::atomic<int> fired{0};
  std::promise<void> cancelled;
  loop.post([&] {
    const TimerId id = loop.runAfter(20.0, [&] { ++fired; });
    EXPECT_TRUE(loop.cancelTimer(id));
    cancelled.set_value();
  });
  cancelled.get_future().get();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(fired.load(), 0);
  loop.stop();
  runner.join();
}

// Edge-triggered fd wiring: a socketpair end registered with the loop sees
// bytes written from another thread, drained through BufferedSocket.
TEST(EventLoop, EdgeTriggeredReadDrains) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  EventLoop loop;
  BufferedSocket reader(fds[0]);
  std::promise<std::string> got;
  loop.add(fds[0], EventLoop::kReadable, [&](std::uint32_t) {
    reader.fillFromSocket();
    if (reader.inbox().size() >= 10) {
      got.set_value(reader.inbox());
      loop.stop();
    }
  });
  std::thread runner([&] { loop.run(); });
  ASSERT_EQ(::send(fds[1], "0123456789", 10, 0), 10);
  EXPECT_EQ(got.get_future().get(), "0123456789");
  runner.join();
  ::close(fds[1]);
}

TEST(EventLoop, StopFromAnotherThreadUnblocksWait) {
  EventLoop loop;
  std::thread runner([&] { loop.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  loop.stop();
  runner.join();  // must return promptly even with an infinite epoll wait
  SUCCEED();
}

// A stop() that lands before the loop thread has entered run() must not be
// lost: destroying a LoopThread straight after constructing it used to hang
// in join() when the destructor won that race. ctest's TIMEOUT turns a
// regression into a failure rather than a stuck suite.
TEST(EventLoop, LoopThreadDestroyedAtOnceNeverHangs) {
  for (int i = 0; i < 1000; ++i) {
    LoopThread thread;
  }
  SUCCEED();
}

TEST(EventLoop, RunAfterStopReturnsThenLoopIsReRunnable) {
  EventLoop loop;
  loop.stop();
  loop.run();  // the early stop ends this run at once
  EXPECT_FALSE(loop.running());
  std::promise<void> ran;
  loop.post([&] {
    ran.set_value();
    loop.stop();
  });
  loop.run();  // the flag was cleared on exit, so this run serves the post
  ran.get_future().get();
  SUCCEED();
}

}  // namespace
}  // namespace cookiepicker::serve
