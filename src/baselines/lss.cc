#include "baselines/lss.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

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

}  // namespace

LssEstimator::LssEstimator(const Graph& data, Options options)
    : data_(data),
      options_(options),
      rng_(options.seed),
      degree_bits_(BitsFor(data.MaxDegree())),
      label_bits_(BitsFor(data.NumLabels() == 0 ? 1 : data.NumLabels() - 1)) {
  label_frequency_.resize(std::max<size_t>(data.NumLabels(), 1), 0.0f);
  double denom = std::log(1.0 + static_cast<double>(data.NumVertices()));
  for (size_t l = 0; l < data.NumLabels(); ++l) {
    label_frequency_[l] = static_cast<float>(
        std::log(1.0 + static_cast<double>(
                           data.LabelFrequency(static_cast<Label>(l)))) /
        denom);
  }

  size_t input_dim = degree_bits_ + label_bits_ + 1;
  if (options_.feature_mode == FeatureMode::kLabelEmbedding) {
    label_embedding_ = std::make_unique<LabelEmbedding>(
        data, options_.label_embedding_dim);
    input_dim = degree_bits_ + label_embedding_->dim();
  }
  size_t in = input_dim;
  for (size_t k = 0; k < options_.gin_layers; ++k) {
    gin_.push_back(std::make_unique<GinLayer>(in, options_.hidden_dim, &rng_));
    in = options_.hidden_dim;
  }
  attn_proj_ = std::make_unique<Linear>(options_.hidden_dim,
                                        options_.attention_dim, &rng_);
  attn_vector_ =
      Parameter(Matrix::GlorotUniform(options_.attention_dim, 1, &rng_));
  predictor_ = std::make_unique<Mlp>(
      std::vector<size_t>{options_.hidden_dim, options_.hidden_dim, 1},
      Activation::kRelu, &rng_);
  predictor_->DampLastLayer();  // start the exp() head at c_hat = 1
  AdamOptimizer::Options aopts;
  aopts.learning_rate = options_.learning_rate;
  optimizer_ = std::make_unique<AdamOptimizer>(AllParameters(), aopts);
}

std::vector<Parameter*> LssEstimator::AllParameters() {
  std::vector<Parameter*> params;
  for (auto& layer : gin_) {
    for (Parameter* p : layer->Parameters()) params.push_back(p);
  }
  for (Parameter* p : attn_proj_->Parameters()) params.push_back(p);
  params.push_back(&attn_vector_);
  for (Parameter* p : predictor_->Parameters()) params.push_back(p);
  return params;
}

std::vector<Graph> LssEstimator::Decompose(const Graph& query) const {
  std::vector<Graph> substructures;
  substructures.reserve(query.NumVertices());
  for (size_t u = 0; u < query.NumVertices(); ++u) {
    // k-hop BFS ball around u.
    std::vector<uint32_t> dist(query.NumVertices(), UINT32_MAX);
    std::queue<VertexId> queue;
    std::vector<VertexId> ball;
    dist[u] = 0;
    queue.push(static_cast<VertexId>(u));
    ball.push_back(static_cast<VertexId>(u));
    while (!queue.empty()) {
      VertexId x = queue.front();
      queue.pop();
      if (dist[x] >= options_.hop_k) continue;
      for (VertexId w : query.Neighbors(x)) {
        if (dist[w] == UINT32_MAX) {
          dist[w] = dist[x] + 1;
          ball.push_back(w);
          queue.push(w);
        }
      }
    }
    std::sort(ball.begin(), ball.end());
    auto induced = BuildInducedSubgraph(query, ball);
    NEURSC_CHECK(induced.ok());
    substructures.push_back(std::move(induced->graph));
  }
  return substructures;
}

Matrix LssEstimator::Featurize(const Graph& g) const {
  const bool use_embedding =
      options_.feature_mode == FeatureMode::kLabelEmbedding;
  const size_t dim = use_embedding
                         ? degree_bits_ + label_embedding_->dim()
                         : degree_bits_ + label_bits_ + 1;
  Matrix features(g.NumVertices(), dim);
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    float* row = features.row(v);
    size_t degree = g.Degree(static_cast<VertexId>(v));
    Label label = g.GetLabel(static_cast<VertexId>(v));
    size_t deg_clamped =
        std::min(degree, (static_cast<size_t>(1) << degree_bits_) - 1);
    for (size_t b = 0; b < degree_bits_; ++b) {
      row[b] = static_cast<float>((deg_clamped >> b) & 1u);
    }
    if (use_embedding) {
      const float* embedding = label_embedding_->Vector(label);
      std::copy(embedding, embedding + label_embedding_->dim(),
                row + degree_bits_);
      continue;
    }
    size_t lab_clamped = std::min<size_t>(
        label, (static_cast<size_t>(1) << label_bits_) - 1);
    for (size_t b = 0; b < label_bits_; ++b) {
      row[degree_bits_ + b] = static_cast<float>((lab_clamped >> b) & 1u);
    }
    row[degree_bits_ + label_bits_] =
        label < label_frequency_.size() ? label_frequency_[label] : 0.0f;
  }
  return features;
}

Var LssEstimator::Forward(Tape* tape,
                          const std::vector<Graph>& substructures,
                          const std::vector<Matrix>& features) {
  std::vector<Var> embeddings;
  embeddings.reserve(substructures.size());
  for (size_t i = 0; i < substructures.size(); ++i) {
    EdgeIndex edges = UndirectedEdges(substructures[i]);
    Var h = tape->Constant(features[i]);
    for (auto& layer : gin_) h = layer->Forward(tape, h, edges);
    // Scaled sum pooling keeps magnitudes bounded across ball sizes.
    float scale = 1.0f / std::sqrt(
        1.0f + static_cast<float>(substructures[i].NumVertices()));
    embeddings.push_back(tape->Scale(tape->SumRows(h), scale));
  }
  Var stacked = tape->ConcatRows(embeddings);  // m x hidden
  // Self-attention pooling: alpha = softmax(a^T tanh(W e_i)).
  Var keys = tape->Tanh(attn_proj_->Forward(tape, stacked));
  Var attn_vec = tape->Leaf(&attn_vector_);
  Var scores = tape->MatMul(keys, attn_vec);  // m x 1
  std::vector<uint32_t> one_segment(substructures.size(), 0);
  Var alpha = tape->SegmentSoftmax(scores, one_segment, 1);
  Var pooled = tape->SumRows(tape->ColBroadcastMul(stacked, alpha));
  Var log_count = predictor_->Forward(tape, pooled);
  return tape->Exp(log_count);
}

Status LssEstimator::Train(const std::vector<TrainingExample>& examples) {
  if (examples.empty()) return Status::InvalidArgument("no examples");
  epoch_seconds_.clear();

  // Decomposition and features are query-deterministic; hoist them.
  struct Prepared {
    std::vector<Graph> substructures;
    std::vector<Matrix> features;
    double count;
  };
  std::vector<Prepared> prepared;
  prepared.reserve(examples.size());
  for (const auto& example : examples) {
    Prepared prep;
    prep.substructures = Decompose(example.query);
    for (const Graph& s : prep.substructures) {
      prep.features.push_back(Featurize(s));
    }
    prep.count = example.count;
    prepared.push_back(std::move(prep));
  }

  std::vector<size_t> indices(prepared.size());
  std::iota(indices.begin(), indices.end(), 0);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    Timer epoch_timer;
    rng_.Shuffle(&indices);
    for (size_t start = 0; start < indices.size();
         start += options_.batch_size) {
      size_t end = std::min(start + options_.batch_size, indices.size());
      optimizer_->ZeroGrad();
      for (size_t i = start; i < end; ++i) {
        const Prepared& prep = prepared[indices[i]];
        Tape tape;
        Var estimate = Forward(&tape, prep.substructures, prep.features);
        Var loss = tape.QErrorLoss(estimate, prep.count);
        tape.Backward(loss);
      }
      optimizer_->ClipGradNorm(options_.grad_clip_norm);
      optimizer_->Step();
      optimizer_->ZeroGrad();
    }
    epoch_seconds_.push_back(epoch_timer.ElapsedSeconds());
  }
  return Status::OK();
}

Result<double> LssEstimator::EstimateCount(const Graph& query) {
  std::vector<Graph> substructures = Decompose(query);
  std::vector<Matrix> features;
  features.reserve(substructures.size());
  for (const Graph& s : substructures) features.push_back(Featurize(s));
  tape_.Reset();
  Var estimate = Forward(&tape_, substructures, features);
  return static_cast<double>(tape_.Value(estimate).scalar());
}

}  // namespace neursc
