// Single-threaded epoll event loop.
//
// One loop owns one epoll instance and runs on one thread; everything it
// touches — fd callbacks, timers, connection state — is confined to that
// thread, so none of it needs locks. The only cross-thread doors are
// post() (queue a closure, wake the loop via eventfd) and stop(). Fds are
// registered edge-triggered: a callback must drain its fd to EAGAIN before
// returning or the notification is lost; BufferedSocket does exactly that.
//
// Timers ride the serve::TimerWheel, advanced to CLOCK_MONOTONIC after
// every epoll wake; the epoll timeout is the wheel's next deadline, so a
// sleeping loop wakes exactly when the earliest timer is due.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/timer_wheel.h"

namespace cookiepicker::serve {

class EventLoop {
 public:
  // Bitmask passed to fd callbacks (a stable alias for the EPOLL* bits the
  // loop reports, so headers stay free of <sys/epoll.h>).
  static constexpr std::uint32_t kReadable = 1u << 0;
  static constexpr std::uint32_t kWritable = 1u << 1;
  static constexpr std::uint32_t kError = 1u << 2;

  using FdCallback = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers `fd` edge-triggered for the given kReadable/kWritable mask.
  // Loop thread only (as are modify/remove/runAfter/cancelTimer).
  void add(int fd, std::uint32_t events, FdCallback callback);
  void modify(int fd, std::uint32_t events);
  void remove(int fd);

  TimerId runAfter(double delayMs, std::function<void()> callback);
  bool cancelTimer(TimerId id);

  // Thread-safe: enqueue a closure and wake the loop.
  void post(std::function<void()> fn);

  // Thread-safe: true while some thread is inside run(). When false, no
  // loop thread exists, so loop-confined state may be touched from the
  // caller's thread — there is nothing left to race with.
  bool running() const {
    return loopThread_.load(std::memory_order_acquire) != std::thread::id();
  }

  // Runs `fn` to completion before returning: inline when called from the
  // loop thread or while the loop is not running, otherwise posted to the
  // loop and waited for. If the loop stops without draining the post, the
  // caller's thread claims the task and runs it inline — exactly-once
  // either way. Lets owners of loop-confined state (AsyncHttpClient's
  // pools, HttpServer's connections) tear down safely from any thread in
  // any destruction order relative to the loop.
  void runSync(std::function<void()> fn);

  // Runs until stop(). Re-runnable after a stop.
  void run();
  // Thread-safe; the loop exits after finishing the current iteration. A
  // stop() issued before run() is entered makes that run() return at once.
  void stop();

  bool inLoopThread() const {
    return loopThread_.load(std::memory_order_acquire) ==
           std::this_thread::get_id();
  }

  // CLOCK_MONOTONIC in fractional milliseconds.
  static double monotonicMs();

  // Milliseconds the loop has spent inside callbacks/timers since run()
  // (loop thread reads exact value; other threads a recent one).
  double busyMs() const { return busyMs_.load(std::memory_order_relaxed); }

 private:
  void wake();
  void drainWake();
  void runPosted();

  int epollFd_ = -1;
  int wakeFd_ = -1;
  std::unordered_map<int, std::shared_ptr<FdCallback>> callbacks_;
  TimerWheel wheel_;
  std::mutex postMutex_;
  std::vector<std::function<void()>> posted_;
  std::atomic<bool> stop_{false};
  std::atomic<std::thread::id> loopThread_{};
  std::atomic<double> busyMs_{0.0};
};

// RAII: runs an EventLoop on its own thread; stops and joins on destruction.
class LoopThread {
 public:
  LoopThread() : thread_([this]() { loop_.run(); }) {}
  ~LoopThread() {
    loop_.stop();
    if (thread_.joinable()) thread_.join();
  }
  LoopThread(const LoopThread&) = delete;
  LoopThread& operator=(const LoopThread&) = delete;

  EventLoop& loop() { return loop_; }

 private:
  EventLoop loop_;
  std::thread thread_;
};

}  // namespace cookiepicker::serve
