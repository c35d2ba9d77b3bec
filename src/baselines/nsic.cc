#include "baselines/nsic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/timer.h"
#include "core/feature_init.h"

namespace neursc {

namespace {

EdgeIndex UndirectedEdges(const Graph& g) {
  EdgeIndex edges;
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(static_cast<VertexId>(v))) {
      edges.Add(static_cast<uint32_t>(w), static_cast<uint32_t>(v));
    }
  }
  return edges;
}

std::vector<float> InverseDegreePlusOne(const Graph& g) {
  std::vector<float> inv(g.NumVertices());
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    inv[v] = 1.0f / (1.0f + static_cast<float>(
                                g.Degree(static_cast<VertexId>(v))));
  }
  return inv;
}

}  // namespace

NsicEstimator::NsicEstimator(const Graph& data, Options options)
    : data_(data),
      options_(options),
      rng_(options.seed),
      degree_bits_(BitsFor(data.MaxDegree())),
      label_bits_(BitsFor(data.NumLabels() == 0 ? 1 : data.NumLabels() - 1)) {
  const size_t input_dim = degree_bits_ + label_bits_;
  size_t in = input_dim;
  for (size_t k = 0; k < options_.layers; ++k) {
    if (options_.kind == GnnKind::kGin) {
      gin_.push_back(
          std::make_unique<GinLayer>(in, options_.hidden_dim, &rng_));
    } else {
      gcn_linear_.push_back(
          std::make_unique<Linear>(in, options_.hidden_dim, &rng_));
    }
    in = options_.hidden_dim;
  }
  // Interaction over [h_q || h_G || h_q*h_G].
  interaction_ = std::make_unique<Mlp>(
      std::vector<size_t>{3 * options_.hidden_dim, options_.hidden_dim, 1},
      Activation::kRelu, &rng_);
  interaction_->DampLastLayer();  // start the exp() head at c_hat = 1
}

std::string NsicEstimator::Name() const {
  std::string name =
      options_.kind == GnnKind::kGin ? "NSIC-I" : "NSIC-C";
  if (options_.use_substructure_extraction) name += " w/ SE";
  return name;
}

Matrix NsicEstimator::Featurize(const Graph& g) const {
  const size_t dim = degree_bits_ + label_bits_;
  Matrix features(g.NumVertices(), dim);
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    float* row = features.row(v);
    size_t degree = std::min<size_t>(
        g.Degree(static_cast<VertexId>(v)),
        (static_cast<size_t>(1) << degree_bits_) - 1);
    for (size_t b = 0; b < degree_bits_; ++b) {
      row[b] = static_cast<float>((degree >> b) & 1u);
    }
    size_t label = std::min<size_t>(
        g.GetLabel(static_cast<VertexId>(v)),
        (static_cast<size_t>(1) << label_bits_) - 1);
    for (size_t b = 0; b < label_bits_; ++b) {
      row[degree_bits_ + b] = static_cast<float>((label >> b) & 1u);
    }
  }
  return features;
}

Var NsicEstimator::GnnLayer(Tape* tape, size_t layer, Var h,
                            const EdgeIndex& edges,
                            const std::vector<float>& inv_degree) {
  if (options_.kind == GnnKind::kGin) {
    return gin_[layer]->Forward(tape, h, edges);
  }
  // GCN-style mean aggregation over {v} union N(v), then linear + ReLU.
  const size_t n = tape->Value(h).rows();
  Var agg;
  if (edges.size() > 0) {
    Var messages = tape->GatherRows(h, edges.src);
    agg = tape->ScatterAddRows(messages, edges.dst, n);
    agg = tape->Add(agg, h);
  } else {
    agg = h;
  }
  Matrix inv(n, 1);
  for (size_t v = 0; v < n; ++v) inv.at(v, 0) = inv_degree[v];
  Var normalized = tape->ColBroadcastMul(agg, tape->Constant(inv));
  return tape->Relu(gcn_linear_[layer]->Forward(tape, normalized));
}

Var NsicEstimator::Encode(Tape* tape, const Graph& g,
                          const Matrix& features) {
  EdgeIndex edges = UndirectedEdges(g);
  std::vector<float> inv_degree = InverseDegreePlusOne(g);
  Var h = tape->Constant(features);
  for (size_t k = 0; k < options_.layers; ++k) {
    h = GnnLayer(tape, k, h, edges, inv_degree);
  }
  // Scaled sum pooling: without it the whole-data-graph embedding has
  // magnitude O(|V|) and saturates the exp() count head.
  float scale =
      1.0f / std::sqrt(1.0f + static_cast<float>(g.NumVertices()));
  return tape->Scale(tape->SumRows(h), scale);
}

Var NsicEstimator::Predict(Tape* tape, Var query_embedding,
                           Var data_embedding) {
  Var product = tape->Mul(query_embedding, data_embedding);
  Var joint = tape->ConcatCols(tape->ConcatCols(query_embedding,
                                                data_embedding),
                               product);
  return tape->Exp(interaction_->Forward(tape, joint));
}

Result<Var> NsicEstimator::DataEmbedding(Tape* tape, const Graph& query) {
  if (!options_.use_substructure_extraction) {
    return Encode(tape, data_, Featurize(data_));
  }
  auto extraction = ExtractSubstructures(query, data_);
  if (!extraction.ok()) return extraction.status();
  if (extraction->early_terminate || extraction->substructures.empty()) {
    return Status::NotFound("no substructures (count is 0)");
  }
  std::vector<Var> parts;
  for (const auto& sub : extraction->substructures) {
    parts.push_back(Encode(tape, sub.graph, Featurize(sub.graph)));
  }
  // Sum the substructure embeddings into one data-side embedding.
  Var stacked = tape->ConcatRows(parts);
  return tape->SumRows(stacked);
}

std::vector<Parameter*> NsicEstimator::AllParameters() {
  std::vector<Parameter*> params;
  for (auto& layer : gin_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  for (auto& layer : gcn_linear_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  for (Parameter* p : interaction_->Parameters()) params.push_back(p);
  return params;
}

Status NsicEstimator::Train(const std::vector<TrainingExample>& examples) {
  if (examples.empty()) return Status::InvalidArgument("no examples");
  AdamOptimizer::Options aopts;
  aopts.learning_rate = options_.learning_rate;
  AdamOptimizer optimizer(AllParameters(), aopts);

  std::vector<size_t> indices(examples.size());
  std::iota(indices.begin(), indices.end(), 0);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng_.Shuffle(&indices);
    for (size_t start = 0; start < indices.size();
         start += options_.batch_size) {
      size_t end = std::min(start + options_.batch_size, indices.size());
      optimizer.ZeroGrad();
      for (size_t i = start; i < end; ++i) {
        const TrainingExample& example = examples[indices[i]];
        Tape tape;
        Var hq = Encode(&tape, example.query, Featurize(example.query));
        auto hg = DataEmbedding(&tape, example.query);
        if (!hg.ok()) continue;
        Var estimate = Predict(&tape, hq, *hg);
        Var loss = tape.QErrorLoss(estimate, example.count);
        tape.Backward(loss);
      }
      optimizer.ClipGradNorm(options_.grad_clip_norm);
      optimizer.Step();
      optimizer.ZeroGrad();
    }
  }
  return Status::OK();
}

Result<double> NsicEstimator::EstimateCount(const Graph& query) {
  Timer timer;
  Tape tape;
  Var hq = Encode(&tape, query, Featurize(query));
  auto hg = DataEmbedding(&tape, query);
  if (!hg.ok()) {
    if (hg.status().IsNotFound()) return 0.0;
    return hg.status();
  }
  Var estimate = Predict(&tape, hq, *hg);
  double value = tape.Value(estimate).scalar();
  if (options_.time_limit_seconds > 0 &&
      timer.ElapsedSeconds() > options_.time_limit_seconds) {
    return Status::Timeout("NSIC forward pass exceeded query budget");
  }
  return value;
}

}  // namespace neursc
