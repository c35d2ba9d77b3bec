#include "nn/optimizer.h"

#include <cmath>

#include "nn/simd.h"

namespace neursc {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;

}  // namespace

AdamOptimizer::AdamOptimizer(std::vector<Parameter*> params)
    : AdamOptimizer(std::move(params), Options()) {}

AdamOptimizer::AdamOptimizer(std::vector<Parameter*> params, Options options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void AdamOptimizer::Step() {
  ++step_count_;
  const double t = static_cast<double>(step_count_);
  const simd::AdamCoefficients coeffs{
      .beta1 = kBeta1,
      .beta2 = kBeta2,
      .bias1 = 1.0 - std::pow(kBeta1, t),
      .bias2 = 1.0 - std::pow(kBeta2, t),
      .learning_rate = options_.learning_rate,
      .epsilon = kEpsilon,
  };
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    simd::AdamStep(p->grad.data(), coeffs, p->value.data(), m_[i].data(),
                   v_[i].data(), p->value.size());
  }
}

void AdamOptimizer::ZeroGrad() {
  for (Parameter* p : params_) p->ZeroGrad();
}

double AdamOptimizer::ClipGradNorm(double max_norm) {
  double total = 0.0;
  for (Parameter* p : params_) {
    double n = p->grad.Norm();
    total += n * n;
  }
  total = std::sqrt(total);
  if (total > max_norm && total > 0.0) {
    float scale = static_cast<float>(max_norm / total);
    for (Parameter* p : params_) p->grad.ScaleInPlace(scale);
  }
  return total;
}

void ClampParameters(const std::vector<Parameter*>& params, float limit) {
  for (Parameter* p : params) p->value.ClampInPlace(limit);
}

}  // namespace neursc
