#include "core/feature_init.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/trace.h"

namespace neursc {

size_t BitsFor(size_t max_value) {
  size_t bits = 1;
  while ((max_value >> bits) != 0) ++bits;
  return bits;
}

FeatureInitializer::FeatureInitializer(const Graph& data, size_t num_hops)
    : FeatureInitializer(
          BitsFor(data.MaxDegree()),
          BitsFor(data.NumLabels() == 0 ? 1 : data.NumLabels() - 1),
          num_hops) {}

FeatureInitializer::FeatureInitializer(size_t degree_bits, size_t label_bits,
                                       size_t num_hops)
    : degree_bits_(degree_bits), label_bits_(label_bits),
      num_hops_(num_hops) {
  NEURSC_CHECK(num_hops <= 1) << "Eq. 1 features support k = 0 or 1, got "
                              << num_hops;
}

namespace {

/// Writes the binary encoding of `value` (LSB first) into out[0..bits);
/// saturates to all-ones when the value does not fit.
void EncodeBinary(size_t value, size_t bits, float* out) {
  if ((value >> bits) != 0) value = (static_cast<size_t>(1) << bits) - 1;
  for (size_t b = 0; b < bits; ++b) {
    out[b] = static_cast<float>((value >> b) & 1u);
  }
}

}  // namespace

Matrix FeatureInitializer::Compute(const Graph& g) const {
  NEURSC_SPAN(features_span, "features/compute");
  NEURSC_COUNTER_ADD("features.vertices",
                     static_cast<int64_t>(g.NumVertices()));
  const size_t n = g.NumVertices();
  const size_t base = degree_bits_ + label_bits_;
  Matrix features(n, FeatureDim());

  // Per-vertex own encoding.
  for (size_t v = 0; v < n; ++v) {
    float* row = features.row(v);
    EncodeBinary(g.Degree(static_cast<VertexId>(v)), degree_bits_, row);
    EncodeBinary(g.GetLabel(static_cast<VertexId>(v)), label_bits_,
                 row + degree_bits_);
  }

  if (num_hops_ == 0) return features;

  // Mean-pool the neighbours' own-encoding rows, in adjacency order.
  for (size_t v = 0; v < n; ++v) {
    auto neighbors = g.Neighbors(static_cast<VertexId>(v));
    if (neighbors.empty()) continue;
    float* block = features.row(v) + base;
    for (VertexId x : neighbors) {
      const float* own = features.row(x);
      for (size_t i = 0; i < base; ++i) block[i] += own[i];
    }
    const float inv = 1.0f / static_cast<float>(neighbors.size());
    for (size_t i = 0; i < base; ++i) block[i] *= inv;
  }
  return features;
}

}  // namespace neursc
