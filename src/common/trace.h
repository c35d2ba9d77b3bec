#ifndef NEURSC_COMMON_TRACE_H_
#define NEURSC_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/mutex.h"
#include "common/status.h"

// Scoped trace spans with Chrome trace_event JSON export.
//
// A TraceSpan marks one timed stage ("filter/refine"). Spans nest naturally:
// Chrome's trace viewer (chrome://tracing, or https://ui.perfetto.dev) nests
// complete events on the same thread by timestamp containment, so no explicit
// parent ids are needed. Span names follow the `stage/substage` scheme
// documented in docs/observability.md.
//
// Recording is off by default. TraceRecorder::Global().Start() (the CLI /
// bench --trace-out flag calls it) or the environment variable
// NEURSC_TRACE=on enable it; NEURSC_TRACE=off vetoes Start() entirely. While
// disabled, a span costs two steady_clock reads plus one relaxed atomic
// load.
//
// Use the NEURSC_SPAN(var, "name") macro for instrumentation: it also
// accumulates the span's duration into the histogram "span/<name>", which is
// what the stage-breakdown table reads.

namespace neursc {

/// Collects completed span events into per-thread buffers (leased and reused
/// across short-lived worker threads) and serializes them as a Chrome
/// trace_event JSON file.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  /// Starts recording (no-op when NEURSC_TRACE=off). Clears nothing: spans
  /// recorded before a Stop()/Start() cycle stay buffered until Clear().
  void Start();
  void Stop();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Discards all buffered events.
  void Clear();
  size_t EventCount() const;

  /// Stops recording and writes {"traceEvents": [...]} with "X" (complete)
  /// events, timestamps in microseconds since Start().
  Status WriteChromeTrace(const std::string& path);

  /// Called by TraceSpan; `name` must outlive the recorder (string literal).
  void Record(const char* name, int64_t start_us, int64_t dur_us);

  int64_t NowMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

 private:
  TraceRecorder();

  struct Event {
    const char* name;
    int64_t start_us;
    int64_t dur_us;
  };

  /// One thread's event sink. The owning thread appends under `mu` (an
  /// uncontended lock in steady state); WriteChromeTrace locks each buffer
  /// while draining so concurrent spans stay race-free. `mu` is acquired
  /// after the recorder-wide `mu_` on the drain paths (lock hierarchy in
  /// docs/threading.md); Record() takes only `mu`.
  struct Buffer {
    Mutex mu;
    std::vector<Event> events NEURSC_GUARDED_BY(mu);
    /// Written once when the buffer is created (under the recorder's mu_),
    /// constant afterwards — readable without Buffer::mu.
    int tid = 0;
  };

  Buffer* ThreadBuffer() NEURSC_EXCLUDES(mu_);

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  /// Guards buffer registration/recycling; each Buffer's events are then
  /// guarded by their own Buffer::mu.
  mutable Mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_ NEURSC_GUARDED_BY(mu_);
  std::vector<Buffer*> free_buffers_ NEURSC_GUARDED_BY(mu_);
  int next_tid_ NEURSC_GUARDED_BY(mu_) = 1;

  friend struct TraceBufferLease;
};

/// RAII span. Measures wall time from construction to End()/destruction;
/// when tracing is enabled the interval is recorded as a trace event, and
/// when a histogram is supplied the duration in seconds is recorded there.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Histogram* duration_histogram = nullptr)
      : name_(name),
        histogram_(duration_histogram),
        tracing_(TraceRecorder::Global().enabled()),
        start_us_(tracing_ ? TraceRecorder::Global().NowMicros() : 0),
        start_(std::chrono::steady_clock::now()) {
  }

  ~TraceSpan() { End(); }

  /// Seconds since construction (or until End() once ended).
  double ElapsedSeconds() const {
    auto end = ended_ ? end_ : std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start_).count();
  }

  /// Finishes the span early (idempotent); the destructor becomes a no-op.
  void End() {
    if (ended_) return;
    ended_ = true;
    end_ = std::chrono::steady_clock::now();
    if (histogram_ != nullptr && MetricsEnabled()) {
      histogram_->Record(ElapsedSeconds());
    }
    if (tracing_ && TraceRecorder::Global().enabled()) {
      int64_t dur_us = std::chrono::duration_cast<std::chrono::microseconds>(
                           end_ - start_)
                           .count();
      TraceRecorder::Global().Record(name_, start_us_, dur_us);
    }
  }

  const char* name() const { return name_; }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  Histogram* histogram_;
  bool tracing_ = false;
  int64_t start_us_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point end_;
  bool ended_ = false;
};

/// Declares a TraceSpan named `var` for stage `name` (a string literal like
/// "filter/refine") whose duration also feeds the histogram "span/<name>".
#define NEURSC_SPAN(var, name)                                    \
  static ::neursc::Histogram* var##_span_hist_ =                  \
      ::neursc::MetricsRegistry::Global().GetHistogram(           \
          ::std::string("span/") + (name));                       \
  ::neursc::TraceSpan var((name), var##_span_hist_)

}  // namespace neursc

#endif  // NEURSC_COMMON_TRACE_H_
