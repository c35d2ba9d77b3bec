#include "common/rng.h"

#include <cmath>

namespace neursc {

int64_t Rng::Zipf(int64_t n, double alpha) {
  // Inverse-transform sampling of the continuous power-law density
  // p(x) ~ x^-alpha on [1, n+1), truncated to an integer.
  double u = Uniform01();
  if (std::abs(alpha - 1.0) < 1e-9) {
    double x = std::exp(u * std::log(static_cast<double>(n) + 1.0));
    int64_t k = static_cast<int64_t>(x);
    return std::min<int64_t>(std::max<int64_t>(k, 1), n);
  }
  double one_minus = 1.0 - alpha;
  double max_term = std::pow(static_cast<double>(n) + 1.0, one_minus);
  double x = std::pow(u * (max_term - 1.0) + 1.0, 1.0 / one_minus);
  int64_t k = static_cast<int64_t>(x);
  return std::min<int64_t>(std::max<int64_t>(k, 1), n);
}

}  // namespace neursc
