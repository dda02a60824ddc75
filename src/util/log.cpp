#include "util/log.h"

#include <atomic>
#include <cstdio>
#include <mutex>

namespace cookiepicker::util {

namespace {
std::atomic<LogLevel> g_threshold{LogLevel::Error};
// Serializes the sink: a line is one fprintf, but concurrent fprintf calls
// to the same stream may interleave on some libcs; the mutex removes the
// ambiguity and keeps ordering sane for multi-line bursts.
std::mutex g_sinkMutex;
thread_local int t_workerIndex = -1;
}  // namespace

LogLevel Logger::threshold() {
  return g_threshold.load(std::memory_order_relaxed);
}

void Logger::setThreshold(LogLevel level) {
  g_threshold.store(level, std::memory_order_relaxed);
}

void Logger::setThreadWorkerIndex(int workerIndex) {
  t_workerIndex = workerIndex < 0 ? -1 : workerIndex;
}

const char* Logger::levelName(LogLevel level) {
  switch (level) {
    case LogLevel::Trace:
      return "TRACE";
    case LogLevel::Debug:
      return "DEBUG";
    case LogLevel::Info:
      return "INFO";
    case LogLevel::Warn:
      return "WARN";
    case LogLevel::Error:
      return "ERROR";
  }
  return "?";
}

void Logger::write(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) <
      static_cast<int>(g_threshold.load(std::memory_order_relaxed))) {
    return;
  }
  std::lock_guard lock(g_sinkMutex);
  if (t_workerIndex >= 0) {
    std::fprintf(stderr, "[%s] [w%d] %s\n", levelName(level), t_workerIndex,
                 message.c_str());
  } else {
    std::fprintf(stderr, "[%s] %s\n", levelName(level), message.c_str());
  }
}

}  // namespace cookiepicker::util
