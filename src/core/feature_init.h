#ifndef NEURSC_CORE_FEATURE_INIT_H_
#define NEURSC_CORE_FEATURE_INIT_H_

#include <cstddef>

#include "graph/graph.h"
#include "nn/matrix.h"

namespace neursc {

/// Produces the initial vertex feature vectors of Eq. 1 for k in {0, 1}:
///
///   x_v = f_b(deg_v) || f_b(label_v)
///         [|| MeanPool_{v' in N(v)} (f_b(deg_v') || f_b(label_v'))]
///
/// where f_b is fixed-width binary encoding of the integer (multi-hot) and
/// the pooled block is present at k = 1 (WEst) and absent at k = 0 (NSIC).
/// The widths are sized once from the data graph (max degree, label count)
/// so query graphs and candidate substructures share one encoding space;
/// out-of-range values saturate.
class FeatureInitializer {
 public:
  /// Sizes the encoder for `data` with `num_hops` = k of Eq. 1, which must
  /// be 0 or 1.
  FeatureInitializer(const Graph& data, size_t num_hops = 1);

  /// Explicit widths (tests).
  FeatureInitializer(size_t degree_bits, size_t label_bits, size_t num_hops);

  /// Total feature dimension dim_0 = (1 + num_hops) * (degree_bits +
  /// label_bits).
  size_t FeatureDim() const {
    return (1 + num_hops_) * (degree_bits_ + label_bits_);
  }

  size_t degree_bits() const { return degree_bits_; }
  size_t label_bits() const { return label_bits_; }
  size_t num_hops() const { return num_hops_; }

  /// Features for every vertex of `g`: (|V(g)| x FeatureDim()). Degrees are
  /// g's own degrees (query features use query degrees, substructure
  /// features substructure degrees).
  ///
  /// v's neighbours are pooled in adjacency-list order, so the cost is
  /// O(|V| + |E|) row additions. The result is bit-identical to a fresh BFS
  /// per vertex (feature_init_test keeps that version as its oracle).
  Matrix Compute(const Graph& g) const;

 private:
  size_t degree_bits_;
  size_t label_bits_;
  size_t num_hops_;
};

/// Number of bits needed to represent `max_value` in binary (>= 1).
size_t BitsFor(size_t max_value);

}  // namespace neursc

#endif  // NEURSC_CORE_FEATURE_INIT_H_
