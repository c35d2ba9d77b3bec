#include "eval/reporting.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/trace.h"

namespace neursc {

std::string FormatQ(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2e", value);
  return buf;
}

std::string FormatBoxRow(const std::string& name, const BoxStats& stats) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-14s | min %9s | q1 %9s | med %9s | q3 %9s | max %9s "
                "(n=%zu)",
                name.c_str(), FormatQ(stats.min).c_str(),
                FormatQ(stats.q1).c_str(), FormatQ(stats.median).c_str(),
                FormatQ(stats.q3).c_str(), FormatQ(stats.max).c_str(),
                stats.count);
  return buf;
}

void PrintSection(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintTable(const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows) {
  std::vector<size_t> widths(header.size(), 0);
  for (size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  };
  print_row(header);
  size_t total = 0;
  for (size_t w : widths) total += w + 2;
  std::printf("%s\n", std::string(total, '-').c_str());
  for (const auto& row : rows) print_row(row);
}

void PrintQErrorBox(const std::string& name,
                    const std::vector<double>& signed_qerrors) {
  std::printf("%s\n",
              FormatBoxRow(name, ComputeBoxStats(signed_qerrors)).c_str());
}

ObservabilitySession::ObservabilitySession(int* argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_path_ = arg + 12;
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      metrics_path_ = arg + 14;
    } else {
      argv[kept++] = argv[i];
    }
  }
  for (int i = kept; i < *argc; ++i) argv[i] = nullptr;
  *argc = kept;
  if (!trace_path_.empty()) TraceRecorder::Global().Start();
}

ObservabilitySession::~ObservabilitySession() { Finish(); }

void ObservabilitySession::Finish() {
  if (finished_) return;
  finished_ = true;
  if (!trace_path_.empty()) {
    Status st = TraceRecorder::Global().WriteChromeTrace(trace_path_);
    if (st.ok()) {
      std::fprintf(stderr,
                   "wrote trace (%zu events) to %s; open in "
                   "chrome://tracing or https://ui.perfetto.dev\n",
                   TraceRecorder::Global().EventCount(), trace_path_.c_str());
    } else {
      NEURSC_LOG(Error) << "trace dump failed: " << st.ToString();
    }
  }
  if (!metrics_path_.empty()) {
    Status st = MetricsRegistry::Global()
                    .Snapshot()
                    .WriteJsonFile(metrics_path_);
    if (st.ok()) {
      std::fprintf(stderr, "wrote metrics snapshot to %s\n",
                   metrics_path_.c_str());
    } else {
      NEURSC_LOG(Error) << "metrics dump failed: " << st.ToString();
    }
  }
}

}  // namespace neursc
