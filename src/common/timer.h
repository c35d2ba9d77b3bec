#ifndef NEURSC_COMMON_TIMER_H_
#define NEURSC_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>
#include <limits>

namespace neursc {

/// Wall-clock stopwatch. Starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Elapsed time in seconds since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in microseconds since construction.
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A soft deadline used by long-running algorithms (exact enumeration,
/// sampling estimators) to honor per-query budgets.
class Deadline {
 public:
  /// A deadline `seconds` from now. Non-positive means "no deadline".
  explicit Deadline(double seconds) : limit_seconds_(seconds) {}

  /// Unlimited deadline.
  static Deadline None() { return Deadline(0.0); }

  /// RemainingSeconds() result when no deadline is set: positive infinity,
  /// so "remaining > budget" style comparisons behave naturally.
  static constexpr double kNoDeadline =
      std::numeric_limits<double>::infinity();

  bool Expired() const {
    return limit_seconds_ > 0.0 && timer_.ElapsedSeconds() >= limit_seconds_;
  }

  double RemainingSeconds() const {
    if (limit_seconds_ <= 0.0) return kNoDeadline;
    return limit_seconds_ - timer_.ElapsedSeconds();
  }

 private:
  Timer timer_;
  double limit_seconds_;
};

}  // namespace neursc

#endif  // NEURSC_COMMON_TIMER_H_
