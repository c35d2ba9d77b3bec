#include "core/neursc.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "nn/serialize.h"

namespace neursc {

namespace {

// Training constants of Alg. 3 (Sec. 6.1 settings). iter_omega = 1:
// UpdateCritic takes one critic step per (query, substructure) pair.
constexpr double kLearningRate = 1e-3;      // alpha_theta
constexpr double kDiscLearningRate = 1e-3;  // alpha_omega
constexpr double kBeta = 0.8;               // beta of Eq. 11: L_c vs L_w
constexpr float kDiscClip = 0.01f;          // WGAN critic weight clip
constexpr size_t kDiscHidden = 32;          // hidden width of f_omega
constexpr double kGradClipNorm = 5.0;       // theta gradient-norm clip

/// OK iff `ext` fits `query`: each substructure has a vertex (Sec. 5.3's
/// linking edges need one) and one local candidate set per query vertex,
/// and every candidate is one of its vertices.
Status CheckExtractionFits(const Graph& query, const ExtractionResult& ext) {
  for (const Substructure& sub : ext.substructures) {
    if (sub.graph.NumVertices() == 0) {
      return Status::InvalidArgument(
          "extraction does not fit the query: substructure with no "
          "vertices");
    }
    if (sub.local_candidates.size() != query.NumVertices()) {
      return Status::InvalidArgument(
          "extraction does not fit the query: not one candidate set per "
          "query vertex");
    }
    for (const auto& candidates : sub.local_candidates) {
      for (VertexId v : candidates) {
        if (v >= sub.graph.NumVertices()) {
          return Status::InvalidArgument(
              "extraction does not fit the query: candidate outside its "
              "substructure");
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace

NeurSCEstimator::NeurSCEstimator(const Graph& data, NeurSCConfig config)
    : data_(data),
      config_(std::move(config)),
      features_(data, config_.west.feature_hops),
      rng_(config_.seed) {
  if (!config_.use_substructure_extraction) {
    // Without extraction there are no candidate sets, so neither the
    // bipartite inter network nor the discriminator is applicable
    // (Sec. 6.2's "NeurSC w/o SE" runs intra-only). The whole data graph
    // is every query's one substructure, built here once; its
    // local_candidates stays empty, as only those two read it.
    config_.west.use_inter = false;
    config_.use_discriminator = false;
    ExtractionResult whole;
    Substructure& sub = whole.substructures.emplace_back();
    sub.graph = data;
    sub.original_id.resize(data.NumVertices());
    std::iota(sub.original_id.begin(), sub.original_id.end(), 0u);
    whole_graph_ = std::make_shared<const SubstructureSet>(std::move(whole),
                                                           features_);
  }
  set_sample_rate(config_.sample_rate);
  config_.west.seed = config_.seed;
  model_ = std::make_unique<WEstModel>(features_.FeatureDim(), config_.west);
  if (config_.use_discriminator) {
    critic_ = std::make_unique<Discriminator>(
        model_->ReprDim(), kDiscHidden, kDiscClip, config_.seed + 1);
    AdamOptimizer::Options omega_options;
    omega_options.learning_rate = kDiscLearningRate;
    opt_omega_ = std::make_unique<AdamOptimizer>(critic_->Parameters(),
                                                 omega_options);
  }
  AdamOptimizer::Options theta_options;
  theta_options.learning_rate = kLearningRate;
  opt_theta_ =
      std::make_unique<AdamOptimizer>(model_->Parameters(), theta_options);
}

NeurSCEstimator::SubstructureSet::SubstructureSet(
    ExtractionResult ext, const FeatureInitializer& initializer)
    : extraction(std::move(ext)) {
  features.reserve(extraction.substructures.size());
  for (const Substructure& sub : extraction.substructures) {
    features.push_back(initializer.Compute(sub.graph));
  }
}

Result<std::vector<NeurSCEstimator::Prepared>> NeurSCEstimator::PrepareQueries(
    std::span<const Graph* const> queries, const ExtractionResult* given) {
  std::vector<Prepared> prepared(queries.size());
  std::vector<Status> status(queries.size());
  // Per-index slots keep the result thread-count independent.
  ParallelFor(queries.size(), [&](size_t i) {
    const Graph& query = *queries[i];
    Prepared& prep = prepared[i];
    prep.start = std::chrono::steady_clock::now();
    status[i] = [&]() -> Status {
      if (query.NumVertices() == 0) {
        return Status::InvalidArgument("empty query graph");
      }
      if (given != nullptr) {
        NEURSC_RETURN_IF_ERROR(CheckExtractionFits(query, *given));
        prep.subs = std::make_shared<const SubstructureSet>(*given, features_);
      } else if (whole_graph_ != nullptr) {
        prep.subs = whole_graph_;
      } else {
        auto extraction = ExtractSubstructures(query, data_, config_.filter);
        if (!extraction.ok()) return extraction.status();
        prep.subs = std::make_shared<const SubstructureSet>(
            std::move(extraction).value(), features_);
      }
      prep.query_features = features_.Compute(query);
      return Status::OK();
    }();
    prep.end = std::chrono::steady_clock::now();
  });
  for (const Status& st : status) {
    if (!st.ok()) return st;
  }
  return prepared;
}

void NeurSCEstimator::UpdateCritic(
    const Matrix& query_repr, const Matrix& sub_repr,
    const std::vector<std::vector<VertexId>>& candidates) {
  NEURSC_SPAN(critic_span, "train/critic");
  NEURSC_COUNTER_INC("train.critic_updates");
  ThreadTape tape;
  Var hq = tape->Constant(query_repr);
  Var hs = tape->Constant(sub_repr);
  Var lw = CriticWassersteinLoss(tape.get(), critic_.get(), hq, hs,
                                 candidates);
  if (!lw.valid()) return;
  // The critic maximizes L_w, i.e. minimizes -L_w.
  Var loss = tape->Scale(lw, -1.0f);
  opt_omega_->ZeroGrad();
  tape->Backward(loss);
  opt_omega_->Step();
  opt_omega_->ZeroGrad();
  critic_->ClampWeights();
}

Var NeurSCEstimator::BuildQueryLoss(
    Tape* tape, const Graph& query, const Prepared& prep, double target_count,
    bool adversarial, Rng* rng,
    std::vector<CriticUpdateInput>* critic_inputs) {
  const auto& subs = prep.subs->extraction.substructures;
  if (prep.subs->extraction.early_terminate || subs.empty()) return Var{};

  Var total_prediction{};
  std::vector<Var> wasserstein_terms;
  for (size_t j = 0; j < subs.size(); ++j) {
    auto fw = model_->Forward(tape, query, subs[j], prep.query_features,
                              prep.subs->features[j], rng);
    total_prediction = total_prediction.valid()
                           ? tape->Add(total_prediction, fw.prediction)
                           : fw.prediction;
    if (adversarial && config_.use_discriminator) {
      if (config_.metric == DistanceMetric::kWasserstein) {
        // The critic is read frozen here (its parameters may be shared
        // with other tapes running concurrently); the inner maximization
        // runs serially after the batch's parallel region, on the
        // detached representations captured for the caller below.
        if (critic_inputs != nullptr) {
          critic_inputs->push_back(CriticUpdateInput{
              j, tape->Value(fw.query_repr), tape->Value(fw.sub_repr)});
        }
        Var lw = CriticWassersteinLoss(tape, critic_.get(), fw.query_repr,
                                       fw.sub_repr, subs[j].local_candidates);
        if (lw.valid()) wasserstein_terms.push_back(lw);
      } else {
        Correspondence pairs = SelectCorrespondenceByDistance(
            tape->Value(fw.query_repr), tape->Value(fw.sub_repr),
            subs[j].local_candidates, config_.metric);
        if (pairs.size() > 0) {
          wasserstein_terms.push_back(PairDistanceLoss(
              tape, fw.query_repr, fw.sub_repr, pairs, config_.metric));
        }
      }
    }
  }

  Var loss = tape->QErrorLoss(total_prediction, target_count);
  if (!wasserstein_terms.empty()) {
    Var lw_sum = wasserstein_terms[0];
    for (size_t i = 1; i < wasserstein_terms.size(); ++i) {
      lw_sum = tape->Add(lw_sum, wasserstein_terms[i]);
    }
    // Eq. 11 with the estimator *minimizing* the Wasserstein distance
    // estimate (the generator side of the WGAN game): the L_w term enters
    // with +beta/|G_sub| so that gradient descent pulls corresponding
    // query/data representations together.
    float w = static_cast<float>(kBeta / static_cast<double>(subs.size()));
    loss = tape->Add(
        tape->Scale(loss, 1.0f - static_cast<float>(kBeta)),
        tape->Scale(lw_sum, w));
  }
  return loss;
}

Result<TrainStats> NeurSCEstimator::Train(
    const std::vector<TrainingExample>& examples) {
  if (examples.empty()) {
    return Status::InvalidArgument("no training examples");
  }
  if (config_.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  NEURSC_SPAN(train_span, "train/total");
  TrainStats stats;

  // The prepare step is query-deterministic: run it once, not per epoch
  // as Alg. 3 does (hoisting is purely an optimization).
  NEURSC_SPAN(prepare_span, "train/prepare");
  std::vector<const Graph*> queries;
  for (const auto& example : examples) queries.push_back(&example.query);
  auto prepared = PrepareQueries(queries, /*given=*/nullptr);
  if (!prepared.ok()) return prepared.status();
  // Indices of the usable examples; the shuffles below permute them.
  std::vector<size_t> indices;
  for (size_t i = 0; i < examples.size(); ++i) {
    const ExtractionResult& extraction = (*prepared)[i].subs->extraction;
    if (extraction.early_terminate || extraction.substructures.empty()) {
      ++stats.examples_skipped;
    } else {
      indices.push_back(i);
    }
  }
  prepare_span.End();
  if (indices.empty()) {
    return Status::InvalidArgument(
        "all training examples early-terminated during extraction");
  }
  stats.examples_used = indices.size();

  // Validation split for early stopping (held out of the training set).
  std::vector<size_t> validation;
  if (config_.validation_fraction > 0.0 && indices.size() >= 4) {
    rng_.Shuffle(&indices);
    size_t held = std::max<size_t>(
        1, static_cast<size_t>(config_.validation_fraction *
                               static_cast<double>(indices.size())));
    held = std::min(held, indices.size() - 1);
    validation.assign(indices.end() - static_cast<ptrdiff_t>(held),
                      indices.end());
    indices.resize(indices.size() - held);
  }

  auto validation_qerror = [&]() {
    // Forward-only, parameters frozen: the held-out losses are
    // independent. Seeds are drawn serially in validation order and the
    // reduction sums in that same order, so the q-error is bit-identical
    // at every thread count. Runs on thread tapes (reused arenas).
    std::vector<uint64_t> seeds = DrawTaskSeeds(validation.size());
    std::vector<double> losses(validation.size(), 0.0);
    std::vector<uint8_t> valid(validation.size(), 0);
    ParallelFor(validation.size(), [&](size_t k) {
      size_t idx = validation[k];
      Rng rng(seeds[k]);
      ThreadTape tape;
      Var loss = BuildQueryLoss(tape.get(), examples[idx].query,
                                (*prepared)[idx], examples[idx].count,
                                /*adversarial=*/false, &rng, nullptr);
      if (!loss.valid()) return;
      losses[k] = tape->Value(loss).scalar();
      valid[k] = 1;
    });
    double total = 0.0;
    size_t n = 0;
    for (size_t k = 0; k < validation.size(); ++k) {
      if (!valid[k]) continue;
      total += losses[k];
      ++n;
    }
    return n > 0 ? total / static_cast<double>(n) : 0.0;
  };
  double best_validation = 1e300;
  size_t epochs_since_best = 0;
  std::vector<Matrix> best_weights;

  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    NEURSC_SPAN(epoch_span, "train/epoch");
    bool adversarial = epoch >= config_.pretrain_epochs;
    // Whether the parallel pass must capture detached representations for
    // the serial critic updates after it.
    const bool wasserstein_updates =
        adversarial && config_.use_discriminator && critic_ != nullptr &&
        config_.metric == DistanceMetric::kWasserstein;
    rng_.Shuffle(&indices);
    double loss_sum = 0.0;
    size_t loss_count = 0;
    for (size_t start = 0; start < indices.size();
         start += config_.batch_size) {
      NEURSC_SPAN(batch_span, "train/batch");
      NEURSC_COUNTER_INC("train.batches");
      size_t end = std::min(start + config_.batch_size, indices.size());
      const size_t batch = end - start;
      opt_theta_->ZeroGrad();
      if (opt_omega_ != nullptr) opt_omega_->ZeroGrad();

      // Forward-pass seeds, drawn serially in batch order, so bipartite
      // linking randomness does not depend on the thread count.
      std::vector<uint64_t> seeds = DrawTaskSeeds(batch);

      // Parallel region: theta and omega are frozen for the whole batch,
      // so the per-example forward+backward passes are independent. Each
      // runs on its thread's tape with a private Rng and routes its leaf
      // gradients into a tape-local sink instead of Parameter::grad.
      std::vector<GradientSink> sinks(batch);
      std::vector<double> example_loss(batch, 0.0);
      std::vector<uint8_t> has_loss(batch, 0);
      std::vector<std::vector<CriticUpdateInput>> critic_inputs(batch);
      {
        NEURSC_SPAN(parallel_span, "train/batch_parallel");
        ParallelFor(batch, [&](size_t k) {
          size_t idx = indices[start + k];
          ThreadTape tape;
          tape->set_gradient_sink(&sinks[k]);
          Rng rng(seeds[k]);
          Var loss = BuildQueryLoss(
              tape.get(), examples[idx].query, (*prepared)[idx],
              examples[idx].count, adversarial, &rng,
              wasserstein_updates ? &critic_inputs[k] : nullptr);
          if (!loss.valid()) return;
          example_loss[k] = tape->Value(loss).scalar();
          has_loss[k] = 1;
          tape->Backward(loss);
        });
      }

      // Deterministic reduction: sinks merge into Parameter::grad in
      // example-index order, fixing the float association no matter which
      // worker ran which example.
      for (size_t k = 0; k < batch; ++k) {
        if (has_loss[k]) {
          loss_sum += example_loss[k];
          ++loss_count;
        }
        sinks[k].ReduceIntoParameters();
      }
      // The estimator step must not consume gradients that leaked into the
      // critic during the combined backward passes.
      if (opt_omega_ != nullptr) opt_omega_->ZeroGrad();
      // Critic inner maximization (Alg. 3 lines 10-12), serial by design:
      // one step per pair (iter_omega = 1), every update mutates omega,
      // and the fixed (example, substructure) order keeps the critic's
      // trajectory thread-count independent. The estimator-side L_w above
      // used the batch-start critic; these updates take effect from the
      // next batch.
      if (wasserstein_updates) {
        for (size_t k = 0; k < batch; ++k) {
          size_t idx = indices[start + k];
          const auto& subs = (*prepared)[idx].subs->extraction.substructures;
          for (const CriticUpdateInput& input : critic_inputs[k]) {
            UpdateCritic(input.query_repr, input.sub_repr,
                         subs[input.sub_index].local_candidates);
          }
        }
      }
      opt_theta_->ClipGradNorm(kGradClipNorm);
      opt_theta_->Step();
      opt_theta_->ZeroGrad();
    }
    epoch_span.End();
    stats.epoch_mean_loss.push_back(loss_count > 0 ? loss_sum / loss_count
                                                   : 0.0);
    stats.epoch_seconds.push_back(epoch_span.ElapsedSeconds());
    NEURSC_LOG(Debug) << "epoch " << epoch << (adversarial ? " [adv]" : "")
                      << " mean loss " << stats.epoch_mean_loss.back();

    if (!validation.empty()) {
      NEURSC_SPAN(validation_span, "train/validation");
      double v = validation_qerror();
      stats.epoch_validation_qerror.push_back(v);
      if (v < best_validation - 1e-9) {
        best_validation = v;
        epochs_since_best = 0;
        best_weights.clear();
        for (Parameter* p : model_->Parameters()) {
          best_weights.push_back(p->value);
        }
      } else if (++epochs_since_best >= config_.early_stop_patience) {
        stats.early_stopped = true;
        break;
      }
    }
  }
  // Restore the best-validation weights if early stopping tracked any.
  if (!best_weights.empty()) {
    auto params = model_->Parameters();
    for (size_t i = 0; i < params.size() && i < best_weights.size(); ++i) {
      params[i]->value = best_weights[i];
    }
  }
  train_span.End();
  stats.total_seconds = train_span.ElapsedSeconds();
  NEURSC_COUNTER_ADD("train.examples_used",
                     static_cast<int64_t>(stats.examples_used));
  NEURSC_COUNTER_ADD("train.examples_skipped",
                     static_cast<int64_t>(stats.examples_skipped));
  return stats;
}

namespace {

std::vector<Parameter*> AllModelParameters(WEstModel* model,
                                           Discriminator* critic) {
  std::vector<Parameter*> params = model->Parameters();
  if (critic != nullptr) {
    for (Parameter* p : critic->Parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace

Status NeurSCEstimator::SaveModel(const std::string& path) {
  return SaveParametersToFile(AllModelParameters(model_.get(), critic_.get()),
                              path);
}

Status NeurSCEstimator::LoadModel(const std::string& path) {
  return LoadParametersFromFile(
      AllModelParameters(model_.get(), critic_.get()), path);
}

std::vector<size_t> NeurSCEstimator::SelectSubstructures(size_t total) {
  // Sec. 5.8: evaluate a uniform sample of ceil(r_s * |G_sub|)
  // substructures; the caller scales the sum by the inverse fraction. The
  // sample is drawn from rng_ before any parallel work starts, so it is
  // the same at every thread count.
  std::vector<size_t> selected(total);
  std::iota(selected.begin(), selected.end(), 0);
  if (config_.sample_rate < 1.0 && total > 1) {
    size_t used = static_cast<size_t>(
        std::ceil(config_.sample_rate * static_cast<double>(total)));
    used = std::max<size_t>(1, std::min(used, total));
    rng_.Shuffle(&selected);
    selected.resize(used);
  }
  return selected;
}

std::vector<uint64_t> NeurSCEstimator::DrawTaskSeeds(size_t count) {
  std::vector<uint64_t> seeds(count);
  for (size_t i = 0; i < count; ++i) seeds[i] = rng_.engine()();
  return seeds;
}

void NeurSCEstimator::RunInferenceTasks(std::vector<InferenceTask>* tasks) {
  NEURSC_COUNTER_ADD("estimate.substructures_evaluated",
                     static_cast<int64_t>(tasks->size()));
  ParallelFor(tasks->size(), [&](size_t i) {
    InferenceTask& task = (*tasks)[i];
    task.start = std::chrono::steady_clock::now();
    // One tape and one RNG per task: nothing the forward pass mutates is
    // shared across workers (see docs/threading.md). The thread tape's
    // warmed-up arenas make the pass allocation-free in steady state.
    Rng rng(task.seed);
    ThreadTape tape;
    auto fw = model_->Forward(tape.get(), *task.query, *task.sub,
                              *task.query_features, *task.sub_features, &rng);
    task.prediction = tape->Value(fw.prediction).scalar();
    task.end = std::chrono::steady_clock::now();
  });
}

Result<EstimateInfo> NeurSCEstimator::Estimate(const Graph& query) {
  NEURSC_SPAN(estimate_span, "estimate/total");
  auto infos = EstimateQueries({&query, 1}, /*given=*/nullptr);
  if (!infos.ok()) return infos.status();
  return infos->front();
}

Result<EstimateInfo> NeurSCEstimator::EstimateOnSubstructures(
    const Graph& query, const ExtractionResult& ext) {
  NEURSC_SPAN(estimate_span, "estimate/total");
  auto infos = EstimateQueries({&query, 1}, &ext);
  if (!infos.ok()) return infos.status();
  return infos->front();
}

Result<std::vector<EstimateInfo>> NeurSCEstimator::EstimateBatch(
    const std::vector<Graph>& queries) {
  NEURSC_SPAN(batch_span, "estimate/batch");
  NEURSC_COUNTER_INC("estimate.batches");
  return EstimateQueries(queries, /*given=*/nullptr);
}

Result<std::vector<EstimateInfo>> NeurSCEstimator::EstimateQueries(
    std::span<const Graph> queries, const ExtractionResult* given) {
  NEURSC_COUNTER_ADD("estimate.queries",
                     static_cast<int64_t>(queries.size()));
  std::vector<EstimateInfo> infos;
  if (queries.empty()) return infos;

  // Phase 1: the prepare step, parallel across queries.
  NEURSC_SPAN(prepare_span, "estimate/prepare");
  std::vector<const Graph*> query_ptrs;
  for (const Graph& query : queries) query_ptrs.push_back(&query);
  auto prepared = PrepareQueries(query_ptrs, given);
  prepare_span.End();
  if (!prepared.ok()) return prepared.status();

  // Phase 2 (serial, query order): sampling decisions and forward-pass
  // seeds. This consumes rng_ exactly as sequential Estimate calls would,
  // which is what makes EstimateBatch match them bit-for-bit. Query q's
  // forward passes are tasks[first_task[q], first_task[q + 1]).
  std::vector<InferenceTask> tasks;
  std::vector<size_t> first_task(queries.size() + 1, 0);
  for (size_t q = 0; q < queries.size(); ++q) {
    const Prepared& prep = (*prepared)[q];
    const auto& subs = prep.subs->extraction.substructures;
    first_task[q] = tasks.size();
    if (prep.subs->extraction.early_terminate || subs.empty()) {
      NEURSC_COUNTER_INC("estimate.early_terminated");
      continue;
    }
    std::vector<size_t> selected = SelectSubstructures(subs.size());
    std::vector<uint64_t> seeds = DrawTaskSeeds(selected.size());
    for (size_t k = 0; k < selected.size(); ++k) {
      tasks.push_back(InferenceTask{&queries[q], &subs[selected[k]],
                                    &prep.query_features,
                                    &prep.subs->features[selected[k]],
                                    seeds[k]});
    }
  }
  first_task[queries.size()] = tasks.size();

  // Phase 3: one work pool over all (query, substructure) pairs.
  NEURSC_SPAN(infer_span, "estimate/infer");
  RunInferenceTasks(&tasks);
  infer_span.End();

  // Phase 4: per query, the reduction in selection order and the timings.
  // The inference interval is [first task start, last task end]; every
  // task starts after every prepare step finished, so
  // total >= extraction + inference. A query runs no task iff it
  // early-terminated: r_s sampling keeps at least one substructure.
  auto seconds = [](auto from, auto to) {
    return std::chrono::duration<double>(to - from).count();
  };
  infos.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    const Prepared& prep = (*prepared)[q];
    const size_t total = prep.subs->extraction.substructures.size();
    const size_t used = first_task[q + 1] - first_task[q];
    double sum = 0.0;
    auto infer_start = used > 0 ? tasks[first_task[q]].start : prep.end;
    auto infer_end = infer_start;
    for (size_t t = first_task[q]; t < first_task[q + 1]; ++t) {
      sum += tasks[t].prediction;
      infer_start = std::min(infer_start, tasks[t].start);
      infer_end = std::max(infer_end, tasks[t].end);
    }
    // Sec. 5.8: scale the sampled sum by the inverse sampled fraction.
    const double count = used == 0 ? 0.0
                                   : sum * static_cast<double>(total) /
                                         static_cast<double>(used);
    if (!std::isfinite(count)) {
      return Status::Internal("non-finite estimate for query " +
                              std::to_string(q));
    }
    infos.push_back(EstimateInfo{
        .count = count,
        .early_terminated = used == 0,
        .num_substructures = total,
        .num_used = used,
        .extraction_seconds = seconds(prep.start, prep.end),
        .inference_seconds = seconds(infer_start, infer_end),
        .total_seconds = seconds(prep.start, infer_end),
        .extraction = prep.subs->extraction.stats,
    });
  }
  return infos;
}

}  // namespace neursc
