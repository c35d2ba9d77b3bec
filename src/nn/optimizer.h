#ifndef NEURSC_NN_OPTIMIZER_H_
#define NEURSC_NN_OPTIMIZER_H_

#include <vector>

#include "nn/tape.h"

namespace neursc {

/// Adam (Kingma & Ba), the paper's optimizer for both WEst and the
/// discriminator, with the standard beta1 = 0.9, beta2 = 0.999 and
/// epsilon = 1e-8.
class AdamOptimizer {
 public:
  struct Options {
    double learning_rate = 1e-3;
  };

  AdamOptimizer(std::vector<Parameter*> params, Options options);
  /// Default options (lr=1e-3).
  explicit AdamOptimizer(std::vector<Parameter*> params);

  /// Applies one update from the accumulated gradients, then leaves the
  /// gradients untouched (call ZeroGrad separately).
  void Step();

  /// Zeroes all tracked parameter gradients.
  void ZeroGrad();

  /// Clips the global gradient norm to `max_norm` if it exceeds it.
  /// Returns the pre-clip norm.
  double ClipGradNorm(double max_norm);

 private:
  std::vector<Parameter*> params_;
  Options options_;
  std::vector<Matrix> m_;  // first moments
  std::vector<Matrix> v_;  // second moments
  int64_t step_count_ = 0;
};

/// Clamps every weight of `params` into [-limit, limit]; the WGAN weight
/// clipping that enforces (approximate) 1-Lipschitzness of f_omega.
void ClampParameters(const std::vector<Parameter*>& params, float limit);

}  // namespace neursc

#endif  // NEURSC_NN_OPTIMIZER_H_
