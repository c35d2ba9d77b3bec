#ifndef NEURSC_BASELINES_LSS_H_
#define NEURSC_BASELINES_LSS_H_

#include <memory>
#include <vector>

#include "baselines/estimator.h"
#include "common/rng.h"
#include "core/feature_init.h"
#include "nn/modules.h"
#include "nn/optimizer.h"
#include "nn/tape.h"

namespace neursc {

/// Re-implementation of LSS, "A Learned Sketch for Subgraph Counting"
/// (Zhao et al., SIGMOD'21), the paper's strongest baseline. Pipeline:
///
/// 1. Decompose the query into |V(q)| substructures — the induced subgraph
///    of the k-hop ball around each query vertex (k fixed at 3; Sec. 1 of
///    the NeurSC paper analyzes how small-diameter queries make all balls
///    identical).
/// 2. Embed every substructure with a GIN stack; sum-pooling readout.
///    Vertex features are [117]'s plain label-frequency option: degree
///    bits and label bits (Eq. 1's encoder at k = 0, as NSIC uses) and the
///    data graph's log label frequency. They use only query-side
///    information plus those frequencies (LSS does not extract from the
///    data graph); [117]'s other option, task-independent ProNE label
///    embeddings, is not reproduced.
/// 3. Aggregate substructure embeddings with a self-attention layer, then
///    regress the (log-scale) count with an MLP.
///
/// Trained with Adam (learning rate 1e-3) on the q-error loss in batches of
/// 8, two GIN layers of width 32, an attention width of 32 and a
/// gradient-norm clip of 5.
/// Train and EstimateCount return InvalidArgument for an empty query.
class LssEstimator : public CardinalityEstimator {
 public:
  struct Options {
    size_t epochs = 12;
    uint64_t seed = 5150;
  };

  LssEstimator(const Graph& data, Options options);
  explicit LssEstimator(const Graph& data) : LssEstimator(data, Options()) {}

  std::string Name() const override { return "LSS"; }
  Status Train(const std::vector<TrainingExample>& examples) override;
  Result<double> EstimateCount(const Graph& query) override;

  /// The k-hop-ball decomposition (exposed for tests): one induced
  /// substructure per query vertex.
  std::vector<Graph> Decompose(const Graph& query) const;

  /// Seconds spent in the last Train() call per epoch (Table 4).
  const std::vector<double>& epoch_seconds() const { return epoch_seconds_; }

 private:
  Matrix Featurize(const Graph& g) const;
  /// Forward over one query; returns the positive scalar estimate.
  Var Forward(Tape* tape, const std::vector<Graph>& substructures,
              const std::vector<Matrix>& features);
  std::vector<Parameter*> AllParameters();

  const Graph& data_;
  Options options_;
  Rng rng_;
  /// Eq. 1's own-vertex encoding (degree bits || label bits), no hops.
  FeatureInitializer encoder_;
  /// log-normalized frequency of each data label.
  std::vector<float> label_frequency_;

  std::vector<std::unique_ptr<GinLayer>> gin_;
  std::unique_ptr<Linear> attn_proj_;      // hidden -> attention width
  Parameter attn_vector_;                  // attention width x 1
  std::unique_ptr<Mlp> predictor_;
  std::unique_ptr<AdamOptimizer> optimizer_;
  std::vector<double> epoch_seconds_;
};

}  // namespace neursc

#endif  // NEURSC_BASELINES_LSS_H_
