#include "nn/optimizer.h"

#include <cmath>

namespace neursc {

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
  const double b1 = options_.beta1;
  const double b2 = options_.beta2;
  const double bias1 = 1.0 - std::pow(b1, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(b2, static_cast<double>(step_count_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    for (size_t j = 0; j < p->value.size(); ++j) {
      double g = p->grad.data()[j];
      double m = b1 * m_[i].data()[j] + (1.0 - b1) * g;
      double v = b2 * v_[i].data()[j] + (1.0 - b2) * g * g;
      m_[i].data()[j] = static_cast<float>(m);
      v_[i].data()[j] = static_cast<float>(v);
      double m_hat = m / bias1;
      double v_hat = v / bias2;
      p->value.data()[j] -= static_cast<float>(
          options_.learning_rate * m_hat /
          (std::sqrt(v_hat) + options_.epsilon));
    }
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
