#ifndef NEURSC_EVAL_METRICS_H_
#define NEURSC_EVAL_METRICS_H_

#include <string>
#include <vector>

namespace neursc {

/// q-error of an estimate (Moerkotte et al.), >= 1:
/// max(max(1,c)/max(1,c_hat), max(1,c_hat)/max(1,c)).
double QError(double estimate, double truth);

/// Signed q-error: magnitude as above, negative when the estimate is an
/// underestimate (c_hat < c). Matches the under/over split on the y-axis of
/// the paper's Figures 7-12.
double SignedQError(double estimate, double truth);

/// Five-number summary used to print the paper's box plots.
struct BoxStats {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  size_t count = 0;
};

/// Computes the five-number summary (linear-interpolated percentiles).
/// Empty input yields all zeros.
BoxStats ComputeBoxStats(std::vector<double> values);

/// p in [0,100]; linear interpolation between order statistics.
double Percentile(std::vector<double> values, double p);

/// Geometric mean; values must be positive.
double GeometricMean(const std::vector<double>& values);

double Mean(const std::vector<double>& values);

}  // namespace neursc

#endif  // NEURSC_EVAL_METRICS_H_
