#include "core/feature_init.h"

#include <algorithm>
#include <span>
#include <vector>

#include "common/metrics_registry.h"
#include "common/trace.h"

namespace neursc {

size_t BitsFor(size_t max_value) {
  size_t bits = 1;
  while ((max_value >> bits) != 0) ++bits;
  return bits;
}

FeatureInitializer::FeatureInitializer(const Graph& data, size_t num_hops)
    : degree_bits_(BitsFor(data.MaxDegree())),
      label_bits_(BitsFor(data.NumLabels() == 0 ? 1 : data.NumLabels() - 1)),
      num_hops_(num_hops) {}

FeatureInitializer::FeatureInitializer(size_t degree_bits, size_t label_bits,
                                       size_t num_hops)
    : degree_bits_(degree_bits), label_bits_(label_bits),
      num_hops_(num_hops) {}

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

  // Mean-pools the own-encoding rows of `ring`, in order, into `block`.
  auto pool = [&](std::span<const VertexId> ring, float* block) {
    if (ring.empty()) return;
    for (VertexId x : ring) {
      const float* own = features.row(x);
      for (size_t i = 0; i < base; ++i) block[i] += own[i];
    }
    const float inv = 1.0f / static_cast<float>(ring.size());
    for (size_t i = 0; i < base; ++i) block[i] *= inv;
  };

  // Exact-i-hop rings of a BFS from each vertex, pooled in the BFS's pop
  // order. Ring 1 is the adjacency list itself, so k = 1 costs O(n + m).
  // Deeper rings grow level by level in one queue; `seen[x] == v + 1`
  // marks x as reached from v, so the arrays are allocated once and never
  // refilled.
  std::vector<uint32_t> seen(num_hops_ > 1 ? n : 0, 0);
  std::vector<VertexId> queue;
  for (size_t v = 0; v < n; ++v) {
    float* row = features.row(v);
    auto ring = g.Neighbors(static_cast<VertexId>(v));
    pool(ring, row + base);
    if (num_hops_ == 1) continue;
    const uint32_t stamp = static_cast<uint32_t>(v) + 1;
    seen[v] = stamp;
    for (VertexId w : ring) seen[w] = stamp;
    queue.assign(ring.begin(), ring.end());
    size_t ring_begin = 0;
    for (size_t hop = 2; hop <= num_hops_; ++hop) {
      const size_t ring_end = queue.size();
      for (size_t i = ring_begin; i < ring_end; ++i) {
        for (VertexId w : g.Neighbors(queue[i])) {
          if (seen[w] != stamp) {
            seen[w] = stamp;
            queue.push_back(w);
          }
        }
      }
      ring_begin = ring_end;
      pool(std::span<const VertexId>(queue).subspan(ring_begin),
           row + base * hop);
    }
  }
  return features;
}

}  // namespace neursc
