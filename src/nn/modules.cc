#include "nn/modules.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace neursc {

Var ApplyActivation(Tape* tape, Var x, Activation activation) {
  switch (activation) {
    case Activation::kRelu:
      return tape->Relu(x);
    case Activation::kLeakyRelu:
      return tape->LeakyRelu(x);
  }
  return x;
}

Linear::Linear(size_t in_features, size_t out_features, Rng* rng)
    : weight_(Matrix::GlorotUniform(in_features, out_features, rng)),
      bias_(Matrix(1, out_features)) {}

Var Linear::Forward(Tape* tape, Var x) {
  Var w = tape->Leaf(&weight_);
  Var b = tape->Leaf(&bias_);
  return tape->AddRowBroadcast(tape->MatMul(x, w), b);
}

Mlp::Mlp(std::vector<size_t> dims, Activation activation, Rng* rng)
    : dims_(std::move(dims)), activation_(activation) {
  NEURSC_CHECK(dims_.size() >= 2) << "MLP needs at least in/out dims";
  for (size_t i = 0; i + 1 < dims_.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims_[i], dims_[i + 1], rng));
  }
}

Var Mlp::Forward(Tape* tape, Var x) {
  for (size_t i = 0; i < layers_.size(); ++i) {
    x = layers_[i]->Forward(tape, x);
    if (i + 1 < layers_.size()) x = ApplyActivation(tape, x, activation_);
  }
  return x;
}

void Mlp::DampLastLayer() {
  Linear& last = *layers_.back();
  last.weight().value.ScaleInPlace(0.01f);
  last.bias().value.Fill(0.0f);
}

std::vector<Parameter*> Mlp::Parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

GinLayer::GinLayer(size_t in_features, size_t out_features, Rng* rng)
    : mlp_({in_features, out_features, out_features}, Activation::kRelu, rng),
      epsilon_(Matrix::Scalar(0.0f)) {}

Var GinLayer::Forward(Tape* tape, Var h, const EdgeIndex& edges) {
  const size_t n = tape->Value(h).rows();
  // Neighborhood sum: each source row added onto its destination.
  Var aggregated = tape->Aggregate(h, edges.src, edges.dst, n);
  // (1 + eps) * h + aggregated; eps is a learnable scalar broadcast by
  // expanding it to a per-row weight column.
  Var eps = tape->Leaf(&epsilon_);
  Var ones = tape->Constant(Matrix::Ones(n, 1));
  Var eps_col = tape->MatMul(ones, eps);  // n x 1, all entries = eps
  Var scaled_self = tape->ColBroadcastMul(h, eps_col);
  Var combined = tape->Add(tape->Add(h, scaled_self), aggregated);
  return tape->Relu(mlp_.Forward(tape, combined));
}

std::vector<Parameter*> GinLayer::Parameters() {
  std::vector<Parameter*> params = mlp_.Parameters();
  params.push_back(&epsilon_);
  return params;
}

MeanAggregatorLayer::MeanAggregatorLayer(size_t in_features,
                                         size_t out_features, Rng* rng)
    : linear_(2 * in_features, out_features, rng) {}

Var MeanAggregatorLayer::Forward(Tape* tape, Var h, const EdgeIndex& edges) {
  const size_t n = tape->Value(h).rows();
  // Mean over neighbors: neighbor sum, then divide by degree (1 minimum so
  // isolated vertices keep a zero aggregate). Aggregate checks the edge
  // indices before they index `degree`.
  Var sums = tape->Aggregate(h, edges.src, edges.dst, n);
  std::vector<float> degree(n, 0.0f);
  for (uint32_t dst : edges.dst) degree[dst] += 1.0f;
  Matrix inv(n, 1);
  for (size_t v = 0; v < n; ++v) {
    inv.at(v, 0) = 1.0f / std::max(degree[v], 1.0f);
  }
  Var aggregated = tape->ColBroadcastMul(sums, tape->Constant(inv));
  Var joint = tape->ConcatCols(h, aggregated);
  return tape->Relu(linear_.Forward(tape, joint));
}

std::vector<Parameter*> MeanAggregatorLayer::Parameters() {
  return linear_.Parameters();
}

BipartiteAttentionLayer::BipartiteAttentionLayer(size_t in_features,
                                                 size_t out_features,
                                                 Rng* rng)
    : theta_(Matrix::GlorotUniform(in_features, out_features, rng)),
      theta_attn_(Matrix::GlorotUniform(in_features, out_features, rng)),
      attn_(Matrix::GlorotUniform(2 * out_features, 1, rng)),
      attn_dst_rows_(out_features),
      attn_src_rows_(out_features) {
  std::iota(attn_dst_rows_.begin(), attn_dst_rows_.end(), 0u);
  std::iota(attn_src_rows_.begin(), attn_src_rows_.end(),
            static_cast<uint32_t>(out_features));
}

Var BipartiteAttentionLayer::Forward(Tape* tape, Var h,
                                     const EdgeIndex& edges) {
  const size_t n = tape->Value(h).rows();
  Var theta = tape->Leaf(&theta_);
  Var theta_attn = tape->Leaf(&theta_attn_);
  Var attn = tape->Leaf(&attn_);

  Var projected = tape->MatMul(h, theta);  // n x out

  // Eq. 5 scores LeakyReLU(a^T [Theta_a h_u || Theta_a h_v]), where u is
  // the destination (the vertex whose neighborhood is normalized over).
  // The bracket is linear in each endpoint, so it equals h_u . w_dst +
  // h_v . w_src with w_dst = Theta_a a[0, out) and w_src = Theta_a
  // a[out, 2 out): two numbers per vertex, summed per edge.
  Var attn_dst = tape->GatherRows(attn, attn_dst_rows_);
  Var attn_src = tape->GatherRows(attn, attn_src_rows_);
  Var w = tape->MatMul(theta_attn, tape->ConcatCols(attn_dst, attn_src));
  Var per_vertex = tape->MatMul(h, w);  // n x 2
  Var logits = tape->LeakyRelu(
      tape->EdgeScores(per_vertex, edges.src, edges.dst));  // E x 1
  Var alpha = tape->SegmentSoftmax(logits, edges.dst, n);

  // Eq. 4: h_u' = sum_v alpha_uv Theta h_v.
  return tape->Aggregate(projected, edges.src, edges.dst, n, alpha);
}

std::vector<Parameter*> BipartiteAttentionLayer::Parameters() {
  return {&theta_, &theta_attn_, &attn_};
}

}  // namespace neursc
