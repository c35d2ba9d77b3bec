#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <ctime>
#include <vector>

namespace neursc {
namespace internal_logging {

namespace {

LogLevel LevelFromEnvironment() {
  const char* env = std::getenv("NEURSC_LOG");
  if (env == nullptr) return LogLevel::kInfo;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "warning") == 0) return LogLevel::kWarning;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  return LogLevel::kInfo;
}

std::atomic<int> g_level{static_cast<int>(LevelFromEnvironment())};

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

/// Small dense id per logging thread (the std::thread::id hash is too wide
/// to read in a log line).
int ThreadLogId() {
  static std::atomic<int> next{0};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void SetLogLevel(LogLevel level) {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void Emit(LogLevel level, const char* file, int line, const std::string& msg) {
  if (level < GetLogLevel() && level != LogLevel::kFatal) return;
  const char* base = std::strrchr(file, '/');
  base = (base != nullptr) ? base + 1 : file;

  auto now = std::chrono::system_clock::now();
  std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                    now.time_since_epoch())
                    .count() %
                1000;
  std::tm tm_buf{};
  localtime_r(&seconds, &tm_buf);

  // One snprintf into a single buffer, one fwrite: concurrent log lines
  // never interleave mid-line.
  char stack_buf[512];
  int needed = std::snprintf(
      stack_buf, sizeof(stack_buf),
      "[%s %02d:%02d:%02d.%03d t%d %s:%d] %s\n", LevelTag(level),
      tm_buf.tm_hour, tm_buf.tm_min, tm_buf.tm_sec,
      static_cast<int>(millis), ThreadLogId(), base, line, msg.c_str());
  if (needed < 0) return;
  if (static_cast<size_t>(needed) < sizeof(stack_buf)) {
    std::fwrite(stack_buf, 1, static_cast<size_t>(needed), stderr);
  } else {
    std::vector<char> heap_buf(static_cast<size_t>(needed) + 1);
    std::snprintf(heap_buf.data(), heap_buf.size(),
                  "[%s %02d:%02d:%02d.%03d t%d %s:%d] %s\n", LevelTag(level),
                  tm_buf.tm_hour, tm_buf.tm_min, tm_buf.tm_sec,
                  static_cast<int>(millis), ThreadLogId(), base, line,
                  msg.c_str());
    std::fwrite(heap_buf.data(), 1, static_cast<size_t>(needed), stderr);
  }
  std::fflush(stderr);
}

}  // namespace internal_logging
}  // namespace neursc
