#ifndef NEURSC_BASELINES_LSS_H_
#define NEURSC_BASELINES_LSS_H_

#include <memory>
#include <vector>

#include "baselines/estimator.h"
#include "baselines/label_embedding.h"
#include "common/rng.h"
#include "nn/modules.h"
#include "nn/optimizer.h"
#include "nn/tape.h"

namespace neursc {

/// Re-implementation of LSS, "A Learned Sketch for Subgraph Counting"
/// (Zhao et al., SIGMOD'21), the paper's strongest baseline. Pipeline:
///
/// 1. Decompose the query into |V(q)| substructures — the induced subgraph
///    of the k-hop ball around each query vertex (k fixed, default 3;
///    Sec. 1 of the NeurSC paper analyzes how small-diameter queries make
///    all balls identical).
/// 2. Embed every substructure with a GIN stack; sum-pooling readout.
///    Vertex features use only query-side information plus the data
///    graph's label frequencies (LSS does not extract from the data graph).
/// 3. Aggregate substructure embeddings with a self-attention layer, then
///    regress the (log-scale) count with an MLP.
///
/// Trained with Adam on the q-error loss.
class LssEstimator : public CardinalityEstimator {
 public:
  /// Vertex feature initialization mode, per [117]'s two options: plain
  /// label-frequency features, or task-independent label embeddings
  /// (ProNE in the original; a spectral co-occurrence embedding here).
  enum class FeatureMode { kBinaryFrequency, kLabelEmbedding };

  struct Options {
    size_t hop_k = 3;
    FeatureMode feature_mode = FeatureMode::kBinaryFrequency;
    size_t label_embedding_dim = 8;
    size_t gin_layers = 2;
    size_t hidden_dim = 32;
    size_t attention_dim = 32;
    double learning_rate = 1e-3;
    size_t batch_size = 8;
    size_t epochs = 12;
    double grad_clip_norm = 5.0;
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
  size_t degree_bits_;
  size_t label_bits_;
  /// log-normalized frequency of each data label.
  std::vector<float> label_frequency_;
  /// Populated only in kLabelEmbedding mode.
  std::unique_ptr<LabelEmbedding> label_embedding_;

  std::vector<std::unique_ptr<GinLayer>> gin_;
  std::unique_ptr<Linear> attn_proj_;      // hidden -> attention_dim
  Parameter attn_vector_;                  // attention_dim x 1
  std::unique_ptr<Mlp> predictor_;
  std::unique_ptr<AdamOptimizer> optimizer_;
  /// Workspace for EstimateCount; Reset() per call keeps the warmed-up
  /// arena so repeated estimates allocate nothing. EstimateCount is not
  /// called concurrently (the estimator confines itself to one caller
  /// thread; see docs/threading.md).
  Tape tape_;
  std::vector<double> epoch_seconds_;
};

}  // namespace neursc

#endif  // NEURSC_BASELINES_LSS_H_
