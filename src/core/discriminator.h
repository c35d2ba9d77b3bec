#ifndef NEURSC_CORE_DISCRIMINATOR_H_
#define NEURSC_CORE_DISCRIMINATOR_H_

#include <memory>
#include <vector>

#include "graph/graph.h"
#include "nn/modules.h"
#include "nn/tape.h"

namespace neursc {

/// Distance metrics for the discriminator ablation (Fig. 12).
enum class DistanceMetric { kWasserstein, kEuclidean, kKL, kJS };

/// The critic f_omega of Sec. 5.5: a small MLP scoring each vertex
/// representation with a single real value, kept (approximately)
/// 1-Lipschitz by clamping its weights into [-clip, clip] after every
/// optimizer step (WGAN weight clipping).
class Discriminator : public Module {
 public:
  Discriminator(size_t repr_dim, size_t hidden_dim, float clip,
                uint64_t seed);

  /// Scores every row of h: (n x D) -> (n x 1).
  Var Score(Tape* tape, Var h);

  /// Clamps all weights into the clip box; call after each omega step.
  void ClampWeights();

  float clip() const { return clip_; }
  std::vector<Parameter*> Parameters() override;

 private:
  std::unique_ptr<Mlp> mlp_;
  float clip_;
};

/// A set of matched (query vertex, substructure vertex) row pairs — the
/// approximate optimal-transport correspondence V'(q), V'(G_sub).
struct Correspondence {
  std::vector<uint32_t> query_rows;
  std::vector<uint32_t> sub_rows;
  size_t size() const { return query_rows.size(); }
};

/// The paper's candidate-guided selection (Sec. 5.5): iterate query
/// vertices in ascending f_omega(h_u); give each the unselected candidate
/// v in CS(u) with the largest f_omega(h_v); when CS(u) is exhausted,
/// re-assign a previously selected query vertex (augmenting-path search) so
/// every query vertex still receives a candidate from its own set; if even
/// that fails (no system of distinct representatives), the best candidate
/// is reused. `candidates` are substructure-local candidate sets.
Correspondence SelectCorrespondenceByScores(
    const Matrix& query_scores, const Matrix& sub_scores,
    const std::vector<std::vector<VertexId>>& candidates);

/// Selection used by the EU/KL/JS variants: each query vertex pairs with
/// its closest candidate under `metric` in representation space.
Correspondence SelectCorrespondenceByDistance(
    const Matrix& query_repr, const Matrix& sub_repr,
    const std::vector<std::vector<VertexId>>& candidates,
    DistanceMetric metric);

/// Differentiable L_w (Eq. 9) from precomputed critic scores (n x 1 each):
/// sum of scores over the selected query rows minus the sum over the
/// selected substructure rows.
Var WassersteinLoss(Tape* tape, Var query_scores, Var sub_scores,
                    const Correspondence& pairs);

/// L_w of one (query, substructure) pair under `critic`, with the
/// candidate-guided selection, built so that Backward runs through the
/// selected substructure rows only. Scores every row of both inputs (the
/// selection needs every candidate's score), selects with
/// SelectCorrespondenceByScores, then scores the distinct selected
/// substructure rows again, gathered in ascending order, and builds
/// WassersteinLoss from those scores. The full-row substructure score
/// feeds only the selection, so Backward skips its records. Returns an
/// invalid Var when the correspondence is empty.
///
/// The loss, every critic gradient and the gradient into `sub_repr` equal
/// WassersteinLoss over the full-row scores bit for bit: the critic scores
/// each row on its own, and an unselected row adds only +-0 to each
/// gradient sum (docs/execution.md, "Backward work"). One difference: a
/// NaN or Inf in an unselected row no longer reaches the critic's
/// gradients, as it would through 0 * Inf in the full-row backward.
Var CriticWassersteinLoss(Tape* tape, Discriminator* critic, Var query_repr,
                          Var sub_repr,
                          const std::vector<std::vector<VertexId>>& candidates);

/// Differentiable mean pairwise distance for the EU/KL/JS variants. KL and
/// JS interpret each representation as a distribution via row softmax.
Var PairDistanceLoss(Tape* tape, Var query_repr, Var sub_repr,
                     const Correspondence& pairs, DistanceMetric metric);

/// Numeric (non-differentiable) distance between two representation rows,
/// used for pair selection.
double RepresentationDistance(const float* a, const float* b, size_t dim,
                              DistanceMetric metric);

}  // namespace neursc

#endif  // NEURSC_CORE_DISCRIMINATOR_H_
