#ifndef NEURSC_COMMON_RNG_H_
#define NEURSC_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace neursc {

/// Deterministic pseudo-random number generator used throughout the library.
/// Wraps a 64-bit Mersenne Twister so that every component (graph
/// generation, query extraction, network initialization, sampling
/// estimators) is reproducible from a single seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform index in [0, n). `n` must be > 0.
  size_t UniformIndex(size_t n) {
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  /// Uniform real in [0, 1).
  double Uniform01() {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    return dist(engine_);
  }

  /// Uniform real in [lo, hi).
  double Uniform(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// True with probability p.
  bool Bernoulli(double p) { return Uniform01() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[UniformIndex(i)]);
    }
  }

  /// Power-law (Zipf-like) integer in [1, n] with exponent `alpha` via
  /// inverse transform on the continuous approximation.
  int64_t Zipf(int64_t n, double alpha);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace neursc

#endif  // NEURSC_COMMON_RNG_H_
