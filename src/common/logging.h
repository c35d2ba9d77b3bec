#ifndef NEURSC_COMMON_LOGGING_H_
#define NEURSC_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

// Thread safety: logging is deliberately lock-free, so there is no mutex
// here to annotate (docs/threading.md lock table). The severity threshold
// is a relaxed atomic, and Emit() formats each line into one buffer
// written by a single fwrite(3) — POSIX stream operations are atomic with
// respect to each other, so concurrent log lines never interleave
// mid-line.

namespace neursc {

/// Log severities. kFatal aborts the process after logging.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

namespace internal_logging {

/// Minimum severity emitted; settable via SetLogLevel or NEURSC_LOG env var
/// (values: debug, info, warning, error).
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);
/// Formats and writes one complete log line ("[I 12:34:56.789 t3
/// file.cc:42] msg") in a single fwrite, so concurrent threads never
/// interleave within a line.
void Emit(LogLevel level, const char* file, int line, const std::string& msg);

/// Stream collector used by the NEURSC_LOG macro.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogMessage() {
    Emit(level_, file_, line_, stream_.str());
    if (level_ == LogLevel::kFatal) std::abort();
  }
  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace internal_logging

#define NEURSC_LOG(level)                                                  \
  ::neursc::internal_logging::LogMessage(::neursc::LogLevel::k##level,     \
                                         __FILE__, __LINE__)               \
      .stream()

/// Invariant check that stays on in release builds; logs and aborts on
/// failure. Use for programmer errors, not data errors (those get Status).
#define NEURSC_CHECK(cond)                                       \
  if (!(cond)) NEURSC_LOG(Fatal) << "Check failed: " #cond " "

}  // namespace neursc

#endif  // NEURSC_COMMON_LOGGING_H_
