#include "core/west.h"

#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/trace.h"

namespace neursc {

EdgeIndex UndirectedEdges(const Graph& g) {
  EdgeIndex edges;
  edges.src.reserve(2 * g.NumEdges());
  edges.dst.reserve(2 * g.NumEdges());
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(static_cast<VertexId>(v))) {
      edges.Add(static_cast<uint32_t>(w), static_cast<uint32_t>(v));
    }
  }
  return edges;
}

namespace {

constexpr size_t kIntraLayers = 2;       // K
constexpr size_t kInterLayers = 2;       // K'
constexpr size_t kPredictorLayers = 4;   // layers of the regressor MLP
constexpr size_t kIntraDim = 32;         // dim_K
constexpr size_t kInterDim = 32;         // dim_K'
constexpr size_t kPredictorHidden = 64;  // hidden width of the regressor

/// Disjoint-set union used to connect the bipartite graph.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

EdgeIndex BuildBipartiteEdges(const Graph& query, const Substructure& sub,
                              Rng* rng) {
  const size_t nq = query.NumVertices();
  const size_t ns = sub.graph.NumVertices();
  EdgeIndex edges;
  UnionFind uf(nq + ns);
  for (size_t u = 0; u < nq; ++u) {
    for (VertexId v : sub.local_candidates[u]) {
      uint32_t a = static_cast<uint32_t>(u);
      uint32_t b = static_cast<uint32_t>(nq + v);
      edges.Add(a, b);
      edges.Add(b, a);
      uf.Union(a, b);
    }
  }
  // Sec. 5.3: if G_B is disconnected, add random query<->substructure edges
  // until it is connected. A random anchor pair (one query vertex, one
  // substructure vertex) is joined first; every other component is then
  // linked to the anchor through a cross-side edge, which keeps G_B
  // bipartite and guarantees progress.
  auto add_edge = [&](uint32_t a, uint32_t b) {
    edges.Add(a, b);
    edges.Add(b, a);
    uf.Union(a, b);
  };
  uint32_t anchor_q = static_cast<uint32_t>(rng->UniformIndex(nq));
  uint32_t anchor_s = static_cast<uint32_t>(nq + rng->UniformIndex(ns));
  if (uf.Find(anchor_q) != uf.Find(anchor_s)) add_edge(anchor_q, anchor_s);
  for (size_t x = 0; x < nq + ns; ++x) {
    if (uf.Find(x) == uf.Find(anchor_q)) continue;
    uint32_t partner = (x < nq) ? anchor_s : anchor_q;
    add_edge(static_cast<uint32_t>(x), partner);
  }
  return edges;
}

WEstModel::WEstModel(size_t input_dim, const WEstConfig& config)
    : config_(config) {
  Rng rng(config.seed);
  size_t in = input_dim;
  for (size_t k = 0; k < kIntraLayers; ++k) {
    if (config.intra_kind == IntraGnnKind::kGin) {
      intra_gin_.push_back(std::make_unique<GinLayer>(in, kIntraDim, &rng));
    } else {
      intra_mean_.push_back(
          std::make_unique<MeanAggregatorLayer>(in, kIntraDim, &rng));
    }
    in = kIntraDim;
  }
  if (config.use_inter) {
    in = input_dim;
    for (size_t k = 0; k < kInterLayers; ++k) {
      inter_.push_back(
          std::make_unique<BipartiteAttentionLayer>(in, kInterDim, &rng));
      in = kInterDim;
    }
  }
  std::vector<size_t> dims;
  dims.push_back(2 * ReprDim());
  for (size_t i = 0; i + 1 < kPredictorLayers; ++i) {
    dims.push_back(kPredictorHidden);
  }
  dims.push_back(1);
  predictor_ = std::make_unique<Mlp>(dims, Activation::kRelu, &rng);
  // Start the exp() count head at c_hat = 1 so early training is in the
  // well-conditioned region of the q-error loss.
  predictor_->DampLastLayer();
}

size_t WEstModel::ReprDim() const {
  return kIntraDim + (config_.use_inter ? kInterDim : 0);
}

WEstModel::Forwarded WEstModel::Forward(Tape* tape, const Graph& query,
                                        const Substructure& sub,
                                        const Matrix& query_features,
                                        const Matrix& sub_features,
                                        Rng* rng) {
  NEURSC_SPAN(forward_span, "west/forward");
  NEURSC_COUNTER_INC("west.forward_calls");
  const size_t nq = query.NumVertices();
  const size_t ns = sub.graph.NumVertices();

  // --- Intra-graph branch: shared GNN stack applied to each graph. ---
  EdgeIndex query_edges = UndirectedEdges(query);
  EdgeIndex sub_edges = UndirectedEdges(sub.graph);
  const Var xq = tape->Constant(query_features);
  const Var xs = tape->Constant(sub_features);
  Var hq = xq;
  Var hs = xs;
  for (size_t k = 0; k < kIntraLayers; ++k) {
    hq = IntraForward(tape, k, hq, query_edges);
    hs = IntraForward(tape, k, hs, sub_edges);
  }

  Var query_repr = hq;
  Var sub_repr = hs;

  if (config_.use_inter) {
    // --- Inter-graph branch over the candidate bipartite graph. ---
    // Self-loops realize the alpha_uu term of Eq. 4; every inter layer
    // reads the one looped list.
    EdgeIndex bipartite = BuildBipartiteEdges(query, sub, rng);
    for (uint32_t v = 0; v < nq + ns; ++v) bipartite.Add(v, v);
    Var hb = tape->ConcatRows({xq, xs});
    for (auto& layer : inter_) {
      hb = tape->Relu(layer->Forward(tape, hb, bipartite));
    }
    std::vector<uint32_t> query_rows(nq);
    std::vector<uint32_t> sub_rows(ns);
    std::iota(query_rows.begin(), query_rows.end(), 0u);
    std::iota(sub_rows.begin(), sub_rows.end(), static_cast<uint32_t>(nq));
    Var inter_q = tape->GatherRows(hb, query_rows);
    Var inter_s = tape->GatherRows(hb, sub_rows);
    query_repr = tape->ConcatCols(hq, inter_q);
    sub_repr = tape->ConcatCols(hs, inter_s);
  }

  // --- Readout (sum pooling) and prediction. ---
  // Sum pooling per the paper; the 1/sqrt(1+n) scaling is an
  // implementation-stability detail that keeps the regressor's input
  // magnitude bounded across substructure sizes without destroying the
  // size information (the scale differs per vertex count).
  Var pooled_q = tape->Scale(
      tape->SumRows(query_repr),
      1.0f / std::sqrt(1.0f + static_cast<float>(nq)));
  Var pooled_s = tape->Scale(
      tape->SumRows(sub_repr),
      1.0f / std::sqrt(1.0f + static_cast<float>(ns)));
  Var joint = tape->ConcatCols(pooled_q, pooled_s);
  Var log_count = predictor_->Forward(tape, joint);
  Var prediction = tape->Exp(log_count);

  return Forwarded{query_repr, sub_repr, prediction};
}

Var WEstModel::IntraForward(Tape* tape, size_t layer, Var h,
                            const EdgeIndex& edges) {
  if (config_.intra_kind == IntraGnnKind::kGin) {
    return intra_gin_[layer]->Forward(tape, h, edges);
  }
  return intra_mean_[layer]->Forward(tape, h, edges);
}

std::vector<Parameter*> WEstModel::Parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : intra_gin_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  for (auto& layer : intra_mean_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  for (auto& layer : inter_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  for (Parameter* p : predictor_->Parameters()) params.push_back(p);
  return params;
}

}  // namespace neursc
