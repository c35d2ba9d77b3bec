#ifndef NEURSC_EVAL_REPORTING_H_
#define NEURSC_EVAL_REPORTING_H_

#include <string>
#include <vector>

#include "eval/metrics.h"

namespace neursc {

/// Formats a number the way the paper's log-scale axes read: "1.2e+04",
/// with under-estimates prefixed by '-' when the input is signed q-error.
std::string FormatQ(double value);

/// One labelled box-plot row, e.g.
///   NeurSC      | min -3.2e+00 | q1 -1.4e+00 | med 1.1e+00 | q3 2.0e+00 | max 8.5e+00 (n=120)
std::string FormatBoxRow(const std::string& name, const BoxStats& stats);

/// Prints a section header ("=== Figure 7a: Yeast ===").
void PrintSection(const std::string& title);

/// Prints an aligned table: header row then data rows. Column widths are
/// derived from content.
void PrintTable(const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows);

/// Convenience: signed q-errors -> box stats -> printed row.
void PrintQErrorBox(const std::string& name,
                    const std::vector<double>& signed_qerrors);

/// Harness-edge observability glue shared by neursc_cli and the bench
/// binaries. Recognizes and strips
///   --trace-out=<file>    write a Chrome trace_event JSON on Finish()
///   --metrics-out=<file>  write a metrics snapshot JSON on Finish()
/// from argv, starting the trace recorder immediately when --trace-out is
/// present. Finish() (idempotent, also run by the destructor) writes the
/// requested files and reports where they went.
class ObservabilitySession {
 public:
  ObservabilitySession(int* argc, char** argv);
  ~ObservabilitySession();

  void Finish();

  bool trace_requested() const { return !trace_path_.empty(); }
  bool metrics_requested() const { return !metrics_path_.empty(); }
  const std::string& trace_path() const { return trace_path_; }
  const std::string& metrics_path() const { return metrics_path_; }

  ObservabilitySession(const ObservabilitySession&) = delete;
  ObservabilitySession& operator=(const ObservabilitySession&) = delete;

 private:
  std::string trace_path_;
  std::string metrics_path_;
  bool finished_ = false;
};

}  // namespace neursc

#endif  // NEURSC_EVAL_REPORTING_H_
