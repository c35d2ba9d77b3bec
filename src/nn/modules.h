#ifndef NEURSC_NN_MODULES_H_
#define NEURSC_NN_MODULES_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/tape.h"

namespace neursc {

/// Edge list of a (directed) message-passing structure: messages flow
/// src[i] -> dst[i]. Undirected graphs list each edge in both directions.
struct EdgeIndex {
  std::vector<uint32_t> src;
  std::vector<uint32_t> dst;

  size_t size() const { return src.size(); }
  void Add(uint32_t s, uint32_t d) {
    src.push_back(s);
    dst.push_back(d);
  }
};

/// Base class for trainable components: exposes the flat parameter list the
/// optimizer steps over.
class Module {
 public:
  virtual ~Module() = default;
  /// All trainable parameters, in a stable order.
  virtual std::vector<Parameter*> Parameters() = 0;

  /// Zeroes all parameter gradients.
  void ZeroGrad() {
    for (Parameter* p : Parameters()) p->ZeroGrad();
  }
  /// Total number of scalar weights.
  size_t NumWeights() {
    size_t n = 0;
    for (Parameter* p : Parameters()) n += p->value.size();
    return n;
  }
};

/// Supported pointwise activations for MLP hidden layers: ReLU (the GIN
/// MLP, the WEst predictor and the LSS and NSIC heads) and LeakyReLU (the
/// critic).
enum class Activation { kRelu, kLeakyRelu };

/// Applies `activation` to `x` on `tape`. Every module Forward below runs
/// on the one execution engine, the Tape (docs/execution.md), for
/// training and inference alike.
Var ApplyActivation(Tape* tape, Var x, Activation activation);

/// Fully-connected layer y = x W + b.
class Linear : public Module {
 public:
  Linear(size_t in_features, size_t out_features, Rng* rng);

  Var Forward(Tape* tape, Var x);
  std::vector<Parameter*> Parameters() override { return {&weight_, &bias_}; }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  Parameter weight_;  // in x out
  Parameter bias_;    // 1 x out
};

/// Multi-layer perceptron. `dims` = {in, hidden..., out}; `activation` is
/// applied after every layer except the last.
class Mlp : public Module {
 public:
  Mlp(std::vector<size_t> dims, Activation activation, Rng* rng);

  Var Forward(Tape* tape, Var x);
  std::vector<Parameter*> Parameters() override;

  /// Scales the last layer's weights by 0.01 and zeroes its bias so
  /// the network initially outputs near-0 regardless of input magnitude.
  /// Used by count-regression heads (output exp(~0) ~= 1) to start in a
  /// well-conditioned region while keeping gradient flow to lower layers.
  void DampLastLayer();

  size_t in_features() const { return dims_.front(); }
  size_t out_features() const { return dims_.back(); }

 private:
  std::vector<size_t> dims_;
  Activation activation_;
  std::vector<std::unique_ptr<Linear>> layers_;
};

/// Graph Isomorphism Network layer (Eq. 3):
///   h_v' = ReLU(MLP((1 + eps) * h_v + sum_{u in N(v)} h_u))
/// with eps a learnable scalar. `edges` must list both directions of every
/// undirected edge; aggregation is scatter-sum over edges.
class GinLayer : public Module {
 public:
  GinLayer(size_t in_features, size_t out_features, Rng* rng);

  /// h: (num_vertices x in_features). Returns (num_vertices x out_features).
  Var Forward(Tape* tape, Var h, const EdgeIndex& edges);
  std::vector<Parameter*> Parameters() override;

 private:
  Mlp mlp_;
  Parameter epsilon_;  // 1x1
};

/// GraphSAGE-style mean-aggregation layer:
///   h_v' = ReLU(W [h_v || mean_{u in N(v)} h_u])
/// Strictly weaker than GIN at distinguishing neighborhood multisets
/// (mean discards multiplicities); provided as the contrast arm of the
/// intra-GNN ablation (the paper's Sec. 5.2 motivates choosing GIN).
class MeanAggregatorLayer : public Module {
 public:
  MeanAggregatorLayer(size_t in_features, size_t out_features, Rng* rng);

  Var Forward(Tape* tape, Var h, const EdgeIndex& edges);
  std::vector<Parameter*> Parameters() override;

 private:
  Linear linear_;  // 2*in -> out
};

/// Attentive message passing over an explicitly provided (bipartite) edge
/// list, Eqs. 4-5. Attention coefficients are computed per destination
/// vertex with a shared projection Theta_a and attention vector a, using
/// LeakyReLU scoring and per-destination softmax. The scores come from two
/// numbers per vertex, h (Theta_a a[0, out)) and h (Theta_a a[out, 2 out)),
/// summed per edge: the same function as projecting every vertex by
/// Theta_a first, up to float rounding. The layer reads the edge list as
/// given: the caller supplies Eq. 4's self term alpha_uu as a self-loop
/// edge (v, v) for every vertex.
class BipartiteAttentionLayer : public Module {
 public:
  BipartiteAttentionLayer(size_t in_features, size_t out_features, Rng* rng);

  /// h: (num_vertices x in). `edges` are the bipartite candidate edges in
  /// both directions followed by one self-loop per vertex. Returns
  /// (num_vertices x out) with the ReLU activation left to the caller (the
  /// raw combination of Eq. 4 is returned).
  Var Forward(Tape* tape, Var h, const EdgeIndex& edges);
  std::vector<Parameter*> Parameters() override;

 private:
  Parameter theta_;       // in x out   (Theta of Eq. 4)
  Parameter theta_attn_;  // in x out   (Theta_a of Eq. 5)
  Parameter attn_;        // 2*out x 1  (a of Eq. 5)
  /// attn_'s rows [0, out) and [out, 2 out): its destination and source
  /// halves.
  std::vector<uint32_t> attn_dst_rows_;
  std::vector<uint32_t> attn_src_rows_;
};

}  // namespace neursc

#endif  // NEURSC_NN_MODULES_H_
