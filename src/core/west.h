#ifndef NEURSC_CORE_WEST_H_
#define NEURSC_CORE_WEST_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "matching/substructure.h"
#include "nn/modules.h"
#include "nn/tape.h"

namespace neursc {

/// Intra-graph GNN flavor. The paper selects GIN for its WL-level
/// expressive power (Sec. 5.2); the mean aggregator is the weaker contrast
/// arm of that ablation.
enum class IntraGnnKind { kGin, kMeanAggregator };

/// Variants of the WEst estimation network. The shape is fixed as west.cc
/// constants: K = 2 intra-graph layers of width dim_K = 32, K' = 2
/// inter-graph layers of width dim_K' = 32 and a 4-layer regressor with
/// hidden width 64. These are Sec. 6.1's settings scaled down for
/// in-harness runs; the paper's 128-dim hidden layers are not run.
struct WEstConfig {
  /// k of Eq. 1: one hop of neighbourhood pooled into initial features.
  static constexpr size_t feature_hops = 1;
  /// Intra-graph layer type.
  IntraGnnKind intra_kind = IntraGnnKind::kGin;
  /// Disables the inter-graph branch (the NeurSC-I ablation).
  bool use_inter = true;
  uint64_t seed = 1234;
};

/// Both-direction edge list of an undirected graph: (w, v) for every
/// neighbor w of every vertex v, in vertex order.
EdgeIndex UndirectedEdges(const Graph& g);

/// The WEst estimation network f_theta (Alg. 2): a GIN branch over each
/// graph individually, an attention branch over the query/candidate
/// bipartite graph, sum-pooling readouts, and an MLP regressor. The
/// regressor produces a log-scale scalar mapped through exp() so the count
/// estimate is positive and the q-error loss is scale-free.
class WEstModel : public Module {
 public:
  /// `input_dim` is the initial feature dimension dim_0 (from
  /// FeatureInitializer::FeatureDim()).
  WEstModel(size_t input_dim, const WEstConfig& config);

  /// Output of one forward pass on a (query, substructure) pair.
  struct Forwarded {
    /// Final per-vertex representations H_q (|V(q)| x D).
    Var query_repr;
    /// Final per-vertex representations H_sub (|V(G_sub)| x D).
    Var sub_repr;
    /// Positive scalar count estimate c_hat_sub (1x1).
    Var prediction;
  };

  /// Runs Alg. 2 on `tape`, for training and serving alike (see
  /// docs/execution.md). `query_features`/`sub_features` are the Eq. 1
  /// features; `sub` supplies the bipartite candidate edges. `rng` breaks
  /// bipartite-graph disconnection by random linking edges (Sec. 5.3).
  Forwarded Forward(Tape* tape, const Graph& query, const Substructure& sub,
                    const Matrix& query_features, const Matrix& sub_features,
                    Rng* rng);

  /// Per-vertex representation dimension D (intra + inter when enabled).
  size_t ReprDim() const;

  std::vector<Parameter*> Parameters() override;

  const WEstConfig& config() const { return config_; }

 private:
  Var IntraForward(Tape* tape, size_t layer, Var h, const EdgeIndex& edges);

  WEstConfig config_;
  std::vector<std::unique_ptr<GinLayer>> intra_gin_;
  std::vector<std::unique_ptr<MeanAggregatorLayer>> intra_mean_;
  std::vector<std::unique_ptr<BipartiteAttentionLayer>> inter_;
  std::unique_ptr<Mlp> predictor_;
};

/// Builds the bipartite message-passing edge list of Sec. 5.3 over the
/// combined vertex space [query vertices | substructure vertices]: an edge
/// (u, |V(q)|+v) in both directions for every candidate v of u, plus random
/// linking edges (drawn with `rng`) until the bipartite graph is connected
/// over all vertices that would otherwise be isolated components.
EdgeIndex BuildBipartiteEdges(const Graph& query, const Substructure& sub,
                              Rng* rng);

}  // namespace neursc

#endif  // NEURSC_CORE_WEST_H_
