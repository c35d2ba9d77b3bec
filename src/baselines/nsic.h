#ifndef NEURSC_BASELINES_NSIC_H_
#define NEURSC_BASELINES_NSIC_H_

#include <memory>
#include <vector>

#include "baselines/estimator.h"
#include "common/rng.h"
#include "core/feature_init.h"
#include "matching/substructure.h"
#include "nn/modules.h"
#include "nn/optimizer.h"
#include "nn/tape.h"

namespace neursc {

/// Re-implementation of NSIC, "Neural Subgraph Isomorphism Counting" (Liu
/// et al., KDD'20): a GNN encodes the query graph and the *entire* data
/// graph; an interaction network regresses the count from the pair of
/// graph embeddings. We simplify DIAMNet to a gated interaction MLP over
/// [h_q || h_G || h_q * h_G] (see DESIGN.md); what the comparison needs —
/// that encoding the whole data graph is slow and makes queries nearly
/// indistinguishable — is architectural and preserved.
///
/// Variants: kind=kGin is NSIC-I (RGIN), kind=kGcn is NSIC-C (RGCN-style
/// mean aggregation). use_substructure_extraction=true is the paper's
/// "NSIC w/ SE" ablation, which encodes the extracted candidate
/// substructures instead of the whole data graph.
///
/// Two GNN layers of width 32. Trained with Adam (learning rate 1e-3) on
/// the q-error loss in batches of 8, with a gradient-norm clip of 5.
/// Train and EstimateCount return InvalidArgument for an empty query.
class NsicEstimator : public CardinalityEstimator {
 public:
  enum class GnnKind { kGin, kGcn };

  struct Options {
    GnnKind kind = GnnKind::kGin;
    bool use_substructure_extraction = false;
    size_t epochs = 8;
    /// Per-query wall budget; exceeded => Timeout (models the paper's
    /// 5-minute cutoff under which NSIC only completes on Yeast).
    double time_limit_seconds = 5.0;
    uint64_t seed = 4242;
  };

  NsicEstimator(const Graph& data, Options options);
  explicit NsicEstimator(const Graph& data) : NsicEstimator(data, Options()) {}

  std::string Name() const override;
  Status Train(const std::vector<TrainingExample>& examples) override;
  Result<double> EstimateCount(const Graph& query) override;

 private:
  /// One message-passing layer of the configured kind.
  Var GnnLayer(Tape* tape, size_t layer, Var h, const EdgeIndex& edges,
               const Matrix& inv_degree);
  /// Encodes a graph to a 1 x hidden embedding.
  Var Encode(Tape* tape, const Graph& g, const Matrix& features);
  /// Interaction + regression from the two embeddings.
  Var Predict(Tape* tape, Var query_embedding, Var data_embedding);
  std::vector<Parameter*> AllParameters();
  /// Data-side embedding for a query (whole graph or substructures).
  Result<Var> DataEmbedding(Tape* tape, const Graph& query);

  const Graph& data_;
  Options options_;
  Rng rng_;
  /// Eq. 1's own-vertex encoding (degree bits || label bits), no hops.
  FeatureInitializer features_;

  // kGin uses gin_, kGcn uses gcn_linear_ (one Linear per layer).
  std::vector<std::unique_ptr<GinLayer>> gin_;
  std::vector<std::unique_ptr<Linear>> gcn_linear_;
  std::unique_ptr<Mlp> interaction_;
};

}  // namespace neursc

#endif  // NEURSC_BASELINES_NSIC_H_
