#include "serve/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <time.h>

namespace cookiepicker::serve {

namespace {

std::uint32_t toEpoll(std::uint32_t events) {
  std::uint32_t mask = EPOLLET;
  if (events & EventLoop::kReadable) mask |= EPOLLIN;
  if (events & EventLoop::kWritable) mask |= EPOLLOUT;
  return mask;
}

std::uint32_t fromEpoll(std::uint32_t mask) {
  std::uint32_t events = 0;
  if (mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) events |= EventLoop::kReadable;
  if (mask & EPOLLOUT) events |= EventLoop::kWritable;
  if (mask & (EPOLLERR | EPOLLHUP)) events |= EventLoop::kError;
  return events;
}

[[noreturn]] void throwErrno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));
}

}  // namespace

EventLoop::EventLoop() : wheel_(monotonicMs()) {
  epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epollFd_ < 0) throwErrno("epoll_create1");
  wakeFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeFd_ < 0) throwErrno("eventfd");
  epoll_event event{};
  event.events = EPOLLIN | EPOLLET;
  event.data.fd = wakeFd_;
  if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &event) != 0) {
    throwErrno("epoll_ctl(wakefd)");
  }
}

EventLoop::~EventLoop() {
  if (wakeFd_ >= 0) ::close(wakeFd_);
  if (epollFd_ >= 0) ::close(epollFd_);
}

void EventLoop::add(int fd, std::uint32_t events, FdCallback callback) {
  epoll_event event{};
  event.events = toEpoll(events) | EPOLLRDHUP;
  event.data.fd = fd;
  if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &event) != 0) {
    throwErrno("epoll_ctl(add)");
  }
  callbacks_[fd] = std::make_shared<FdCallback>(std::move(callback));
}

void EventLoop::modify(int fd, std::uint32_t events) {
  epoll_event event{};
  event.events = toEpoll(events) | EPOLLRDHUP;
  event.data.fd = fd;
  if (::epoll_ctl(epollFd_, EPOLL_CTL_MOD, fd, &event) != 0) {
    throwErrno("epoll_ctl(mod)");
  }
}

void EventLoop::remove(int fd) {
  ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
  callbacks_.erase(fd);
}

TimerId EventLoop::runAfter(double delayMs, std::function<void()> callback) {
  return wheel_.schedule(delayMs, std::move(callback));
}

bool EventLoop::cancelTimer(TimerId id) { return wheel_.cancel(id); }

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(postMutex_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void EventLoop::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

void EventLoop::drainWake() {
  std::uint64_t value = 0;
  while (::read(wakeFd_, &value, sizeof(value)) > 0) {
  }
}

void EventLoop::runPosted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(postMutex_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

void EventLoop::runSync(std::function<void()> fn) {
  if (inLoopThread() || !running()) {
    fn();
    return;
  }
  struct SyncTask {
    std::function<void()> fn;
    std::atomic<bool> claimed{false};
    std::promise<void> done;
  };
  auto task = std::make_shared<SyncTask>();
  task->fn = std::move(fn);
  std::future<void> finished = task->done.get_future();
  post([task]() {
    if (!task->claimed.exchange(true)) task->fn();
    task->done.set_value();
  });
  // The loop can stop between the running() check above and the post
  // draining; poll so a stopped loop hands the task back to this thread.
  while (finished.wait_for(std::chrono::milliseconds(50)) !=
         std::future_status::ready) {
    if (!running() && !task->claimed.exchange(true)) {
      task->fn();
      return;  // the posted copy sees claimed and only signals
    }
  }
}

void EventLoop::run() {
  loopThread_.store(std::this_thread::get_id(), std::memory_order_release);
  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    int timeoutMs = -1;
    {
      const double next = wheel_.msUntilNext(monotonicMs());
      if (next >= 0.0) {
        timeoutMs = static_cast<int>(std::ceil(next));
      }
      std::lock_guard<std::mutex> lock(postMutex_);
      if (!posted_.empty()) timeoutMs = 0;
    }
    const int ready = ::epoll_wait(epollFd_, events, 64, timeoutMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throwErrno("epoll_wait");
    }
    const double busyStart = monotonicMs();
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeFd_) {
        drainWake();
        continue;
      }
      auto it = callbacks_.find(fd);
      if (it == callbacks_.end()) continue;  // removed by an earlier callback
      // Shared copy: the callback may remove (and thus destroy) itself.
      std::shared_ptr<FdCallback> callback = it->second;
      (*callback)(fromEpoll(events[i].events));
    }
    runPosted();
    const double now = monotonicMs();
    wheel_.advanceTo(now);
    busyMs_.store(busyMs_.load(std::memory_order_relaxed) +
                      (monotonicMs() - busyStart),
                  std::memory_order_relaxed);
  }
  // Cleared on the way out, not on entry: a stop() that lands before the
  // loop thread reaches run() still ends that run, and the next run() starts
  // fresh.
  stop_.store(false, std::memory_order_release);
  loopThread_.store(std::thread::id(), std::memory_order_release);
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

double EventLoop::monotonicMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1000.0 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace cookiepicker::serve
