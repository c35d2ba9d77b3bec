#include "common/trace.h"

#include <cstdio>

namespace neursc {

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Start() { enabled_.store(true, std::memory_order_relaxed); }

void TraceRecorder::Stop() { enabled_.store(false, std::memory_order_relaxed); }

TraceRecorder::Buffer* TraceRecorder::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    MutexLock lock(&mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->tid = next_tid_++;
  }
  return buffer;
}

void TraceRecorder::Record(const char* name, int64_t start_us,
                           int64_t dur_us) {
  Buffer* buffer = ThreadBuffer();
  MutexLock lock(&buffer->mu);
  buffer->events.push_back(Event{name, start_us, dur_us});
}

void TraceRecorder::Clear() {
  MutexLock lock(&mu_);
  for (auto& buffer : buffers_) {
    MutexLock buffer_lock(&buffer->mu);
    buffer->events.clear();
  }
}

size_t TraceRecorder::EventCount() const {
  MutexLock lock(&mu_);
  size_t total = 0;
  for (const auto& buffer : buffers_) {
    MutexLock buffer_lock(&buffer->mu);
    total += buffer->events.size();
  }
  return total;
}

namespace {

void AppendEscaped(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out->push_back('\\');
    out->push_back(*s);
  }
}

}  // namespace

Status TraceRecorder::WriteChromeTrace(const std::string& path) {
  Stop();
  std::string json =
      "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  {
    MutexLock lock(&mu_);
    bool first = true;
    for (const auto& buffer : buffers_) {
      MutexLock buffer_lock(&buffer->mu);
      for (const Event& event : buffer->events) {
        if (!first) json.append(",\n");
        first = false;
        json.append("{\"name\": \"");
        AppendEscaped(&json, event.name);
        json.append("\", \"cat\": \"neursc\", \"ph\": \"X\", \"ts\": ");
        json.append(std::to_string(event.start_us));
        json.append(", \"dur\": ");
        json.append(std::to_string(event.dur_us));
        json.append(", \"pid\": 1, \"tid\": ");
        json.append(std::to_string(buffer->tid));
        json.append("}");
      }
    }
  }
  json.append("\n]}\n");

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace output: " + path);
  }
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IOError("short write to trace output: " + path);
  }
  return Status::OK();
}

}  // namespace neursc
