#include "common/metrics_registry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace neursc {

bool MetricsEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("NEURSC_METRICS");
    if (env == nullptr) return true;
    return std::strcmp(env, "off") != 0 && std::strcmp(env, "0") != 0;
  }();
  return enabled;
}

namespace internal_metrics {

size_t ShardIndex() {
  static std::atomic<size_t> next_index{0};
  thread_local const size_t index = next_index.fetch_add(1) % kShardCount;
  return index;
}

}  // namespace internal_metrics

// --- Counter ---------------------------------------------------------------

int64_t Counter::Value() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (auto& shard : shards_) {
    shard.value.store(0, std::memory_order_relaxed);
  }
}

// --- Snapshot --------------------------------------------------------------

namespace {

void AppendJsonKey(std::string* out, const std::string& name) {
  out->push_back('"');
  for (char c : name) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->append("\": ");
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out.append(i == 0 ? "\n    " : ",\n    ");
    AppendJsonKey(&out, counters[i].name);
    out.append(std::to_string(counters[i].value));
  }
  out.append("\n  }\n}\n");
  return out;
}

Status MetricsSnapshot::WriteJsonFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open metrics output: " + path);
  }
  std::string json = ToJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IOError("short write to metrics output: " + path);
  }
  return Status::OK();
}

// --- Registry --------------------------------------------------------------

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter()))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->Value()});
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
}

}  // namespace neursc
