#include "eval/metrics.h"

#include <algorithm>
#include <cmath>

namespace neursc {

double QError(double estimate, double truth) {
  double c = std::max(1.0, truth);
  double c_hat = std::max(1.0, estimate);
  return std::max(c / c_hat, c_hat / c);
}

double SignedQError(double estimate, double truth) {
  double q = QError(estimate, truth);
  return std::max(1.0, estimate) < std::max(1.0, truth) ? -q : q;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

BoxStats ComputeBoxStats(std::vector<double> values) {
  BoxStats stats;
  if (values.empty()) return stats;
  std::sort(values.begin(), values.end());
  stats.count = values.size();
  stats.min = values.front();
  stats.max = values.back();
  auto pct = [&](double p) {
    double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
  };
  stats.q1 = pct(25.0);
  stats.median = pct(50.0);
  stats.q3 = pct(75.0);
  return stats;
}

double GeometricMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-300));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

}  // namespace neursc
