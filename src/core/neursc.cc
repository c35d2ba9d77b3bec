#include "core/neursc.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/logging.h"
#include "common/metrics_registry.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "nn/serialize.h"

namespace neursc {

namespace {

/// Substructure standing in for the whole data graph ("w/o SE" ablation).
Substructure WholeGraphSubstructure(const Graph& data, size_t num_query) {
  Substructure s;
  s.graph = data;
  s.original_id.resize(data.NumVertices());
  std::iota(s.original_id.begin(), s.original_id.end(), 0u);
  s.local_candidates.assign(num_query, {});
  return s;
}

/// Hash of the settings a Prepared entry depends on besides the query and
/// the data graph: every CandidateFilterOptions field, the feature hops,
/// and whether extraction runs at all. A new field of either that changes
/// extraction or features belongs here.
uint64_t PreparedSettingsHash(const NeurSCConfig& config) {
  uint64_t h = 14695981039346656037ull;
  for (uint64_t v :
       {static_cast<uint64_t>(config.filter.refinement_rounds),
        static_cast<uint64_t>(config.filter.homomorphism_safe),
        static_cast<uint64_t>(config.west.feature_hops),
        static_cast<uint64_t>(config.use_substructure_extraction)}) {
    h = (h ^ v) * 1099511628211ull;
  }
  return h;
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
    // (Sec. 6.2's "NeurSC w/o SE" runs intra-only).
    config_.west.use_inter = false;
    config_.use_discriminator = false;
  }
  config_.west.seed = config_.seed;
  model_ = std::make_unique<WEstModel>(features_.FeatureDim(), config_.west);
  if (config_.use_discriminator) {
    critic_ = std::make_unique<Discriminator>(
        model_->ReprDim(), config_.disc_hidden, config_.disc_clip,
        config_.seed + 1);
    AdamOptimizer::Options omega_options;
    omega_options.learning_rate = config_.disc_learning_rate;
    opt_omega_ = std::make_unique<AdamOptimizer>(critic_->Parameters(),
                                                 omega_options);
  }
  AdamOptimizer::Options theta_options;
  theta_options.learning_rate = config_.learning_rate;
  opt_theta_ =
      std::make_unique<AdamOptimizer>(model_->Parameters(), theta_options);
}

Result<NeurSCEstimator::Prepared> NeurSCEstimator::Prepare(
    const Graph& query) {
  auto extraction = Extract(query);
  if (!extraction.ok()) return extraction.status();
  return InitializeFeatures(query, std::move(extraction).value());
}

Result<ExtractionResult> NeurSCEstimator::Extract(const Graph& query) {
  if (config_.use_substructure_extraction) {
    return ExtractSubstructures(query, data_, config_.filter);
  }
  ExtractionResult extraction;
  extraction.early_terminate = false;
  extraction.substructures.push_back(
      WholeGraphSubstructure(data_, query.NumVertices()));
  return extraction;
}

NeurSCEstimator::Prepared NeurSCEstimator::InitializeFeatures(
    const Graph& query, ExtractionResult extraction) {
  Prepared prep;
  prep.extraction = std::move(extraction);
  prep.query_features = features_.Compute(query);
  prep.sub_features.reserve(prep.extraction.substructures.size());
  for (const auto& sub : prep.extraction.substructures) {
    prep.sub_features.push_back(features_.Compute(sub.graph));
  }
  return prep;
}

void NeurSCEstimator::UpdateCritic(
    const Matrix& query_repr, const Matrix& sub_repr,
    const std::vector<std::vector<VertexId>>& candidates) {
  NEURSC_SPAN(critic_span, "train/critic");
  NEURSC_COUNTER_ADD("train.critic_updates", config_.disc_iters);
  auto tape = tape_pool_.Acquire();
  for (int it = 0; it < config_.disc_iters; ++it) {
    tape->Reset();
    Var hq = tape->Constant(query_repr);
    Var hs = tape->Constant(sub_repr);
    Var sq = critic_->Score(tape.get(), hq);
    Var ss = critic_->Score(tape.get(), hs);
    Correspondence pairs = SelectCorrespondenceByScores(
        tape->Value(sq), tape->Value(ss), candidates);
    if (pairs.size() == 0) return;
    Var lw = WassersteinLoss(tape.get(), sq, ss, pairs);
    // The critic maximizes L_w, i.e. minimizes -L_w.
    Var loss = tape->Scale(lw, -1.0f);
    opt_omega_->ZeroGrad();
    tape->Backward(loss);
    opt_omega_->Step();
    opt_omega_->ZeroGrad();
    critic_->ClampWeights();
  }
}

Var NeurSCEstimator::BuildQueryLoss(
    Tape* tape, const Graph& query, const Prepared& prep, double target_count,
    bool adversarial, Rng* rng,
    std::vector<CriticUpdateInput>* critic_inputs) {
  const auto& subs = prep.extraction.substructures;
  if (prep.extraction.early_terminate || subs.empty()) return Var{};

  Var total_prediction{};
  std::vector<Var> wasserstein_terms;
  for (size_t j = 0; j < subs.size(); ++j) {
    auto fw = model_->Forward(tape, query, subs[j], prep.query_features,
                              prep.sub_features[j], rng);
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
        Var sq = critic_->Score(tape, fw.query_repr);
        Var ss = critic_->Score(tape, fw.sub_repr);
        Correspondence pairs = SelectCorrespondenceByScores(
            tape->Value(sq), tape->Value(ss), subs[j].local_candidates);
        if (pairs.size() > 0) {
          wasserstein_terms.push_back(
              WassersteinLoss(tape, sq, ss, pairs));
        }
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
    float w = static_cast<float>(config_.beta /
                                 static_cast<double>(subs.size()));
    loss = tape->Add(
        tape->Scale(loss, 1.0f - static_cast<float>(config_.beta)),
        tape->Scale(lw_sum, w));
  }
  return loss;
}

Result<TrainStats> NeurSCEstimator::Train(
    const std::vector<TrainingExample>& examples, PreparedQueryCache* cache) {
  if (examples.empty()) {
    return Status::InvalidArgument("no training examples");
  }
  NEURSC_SPAN(train_span, "train/total");
  TrainStats stats;

  // Extraction and feature initialization are query-deterministic: do them
  // once, in parallel across examples (Alg. 3 recomputes per epoch;
  // hoisting is purely an optimization). Prepare never touches rng_, so
  // running out of order is safe; per-index slots keep the results
  // thread-count independent. With a cache, each query's Prepared data is
  // shared across Train calls.
  NEURSC_SPAN(prepare_span, "train/prepare");
  std::vector<std::shared_ptr<const Prepared>> all_prepared(examples.size());
  std::vector<Status> prepare_status(examples.size());
  PreparedQueryCache::Key base_key;
  if (cache != nullptr) {
    base_key.data = data_.Fingerprint();
    base_key.settings = PreparedSettingsHash(config_);
  }
  ParallelFor(examples.size(), [&](size_t i) {
    const Graph& query = examples[i].query;
    PreparedQueryCache::Key key = base_key;
    if (cache != nullptr) {
      key.query = query.Fingerprint();
      if (auto hit = cache->Lookup(key, query)) {
        all_prepared[i] = std::move(hit);
        return;
      }
    }
    auto prep = Prepare(query);
    if (!prep.ok()) {
      prepare_status[i] = prep.status();
      return;
    }
    auto owned = std::make_shared<const Prepared>(std::move(prep).value());
    all_prepared[i] =
        cache != nullptr ? cache->Insert(key, query, std::move(owned)) : owned;
  });
  // Lowest-index failure wins, matching the old serial loop's behavior.
  for (const Status& st : prepare_status) {
    if (!st.ok()) return st;
  }
  std::vector<std::shared_ptr<const Prepared>> prepared;
  std::vector<const TrainingExample*> usable;
  prepared.reserve(examples.size());
  for (size_t i = 0; i < examples.size(); ++i) {
    if (all_prepared[i]->extraction.early_terminate ||
        all_prepared[i]->extraction.substructures.empty()) {
      ++stats.examples_skipped;
      continue;
    }
    prepared.push_back(all_prepared[i]);
    usable.push_back(&examples[i]);
  }
  all_prepared.clear();
  prepare_span.End();
  if (usable.empty()) {
    return Status::InvalidArgument(
        "all training examples early-terminated during extraction");
  }
  stats.examples_used = usable.size();

  std::vector<size_t> indices(usable.size());
  std::iota(indices.begin(), indices.end(), 0);

  // Validation split for early stopping (held out of the training set).
  std::vector<size_t> validation;
  if (config_.validation_fraction > 0.0 && usable.size() >= 4) {
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
    // at every thread count. Runs on pooled tapes (reused arenas).
    std::vector<uint64_t> seeds = DrawTaskSeeds(validation.size());
    std::vector<double> losses(validation.size(), 0.0);
    std::vector<uint8_t> valid(validation.size(), 0);
    ParallelFor(validation.size(), [&](size_t k) {
      size_t idx = validation[k];
      Rng rng(seeds[k]);
      auto tape = tape_pool_.Acquire();
      Var loss = BuildQueryLoss(tape.get(), usable[idx]->query,
                                *prepared[idx], usable[idx]->count,
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
      // runs on its own tape with a private Rng and routes its leaf
      // gradients into a tape-local sink instead of Parameter::grad. The
      // tape is not pooled: a pass holds every substructure of its query,
      // and a pooled tape would keep each arena slot at its largest size
      // over all examples for the estimator's lifetime.
      std::vector<GradientSink> sinks(batch);
      std::vector<double> example_loss(batch, 0.0);
      std::vector<uint8_t> has_loss(batch, 0);
      std::vector<std::vector<CriticUpdateInput>> critic_inputs(batch);
      {
        NEURSC_SPAN(parallel_span, "train/batch_parallel");
        ParallelFor(batch, [&](size_t k) {
          size_t idx = indices[start + k];
          Tape tape;
          tape.set_gradient_sink(&sinks[k]);
          Rng rng(seeds[k]);
          Var loss = BuildQueryLoss(
              &tape, usable[idx]->query, *prepared[idx], usable[idx]->count,
              adversarial, &rng,
              wasserstein_updates ? &critic_inputs[k] : nullptr);
          if (!loss.valid()) return;
          example_loss[k] = tape.Value(loss).scalar();
          has_loss[k] = 1;
          tape.Backward(loss);
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
      // disc_iters is small, every update mutates omega, and the fixed
      // (example, substructure) order keeps the critic's trajectory
      // thread-count independent. The estimator-side L_w above used the
      // batch-start critic; these updates take effect from the next batch.
      if (wasserstein_updates) {
        for (size_t k = 0; k < batch; ++k) {
          size_t idx = indices[start + k];
          const auto& subs = prepared[idx]->extraction.substructures;
          for (const CriticUpdateInput& input : critic_inputs[k]) {
            UpdateCritic(input.query_repr, input.sub_repr,
                         subs[input.sub_index].local_candidates);
          }
        }
      }
      opt_theta_->ClipGradNorm(config_.grad_clip_norm);
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

void NeurSCEstimator::RunInferenceTasks(
    std::vector<InferenceTask>* tasks,
    std::chrono::steady_clock::time_point epoch) {
  NEURSC_COUNTER_ADD("estimate.substructures_evaluated",
                     static_cast<int64_t>(tasks->size()));
  ParallelFor(tasks->size(), [&](size_t i) {
    InferenceTask& task = (*tasks)[i];
    NEURSC_SPAN(substructure_span, "estimate/substructure");
    auto start = std::chrono::steady_clock::now();
    // One tape and one RNG per task: nothing the forward pass mutates is
    // shared across workers (see docs/threading.md). The leased tape's
    // warmed-up arenas make the pass allocation-free in steady state.
    Rng rng(task.seed);
    auto tape = tape_pool_.Acquire();
    auto fw = model_->Forward(tape.get(), *task.query, *task.sub,
                              *task.query_features, *task.sub_features, &rng);
    task.prediction = tape->Value(fw.prediction).scalar();
    auto end = std::chrono::steady_clock::now();
    task.start_seconds = std::chrono::duration<double>(start - epoch).count();
    task.end_seconds = std::chrono::duration<double>(end - epoch).count();
  });
}

Result<EstimateInfo> NeurSCEstimator::Estimate(const Graph& query) {
  NEURSC_SPAN(estimate_span, "estimate/total");
  auto infos = EstimateQueries(
      {&query, 1}, [this](const Graph& q) { return Prepare(q); });
  if (!infos.ok()) return infos.status();
  return infos->front();
}

Result<EstimateInfo> NeurSCEstimator::EstimateOnSubstructures(
    const Graph& query, const ExtractionResult& ext) {
  NEURSC_SPAN(estimate_span, "estimate/total");
  auto infos = EstimateQueries({&query, 1}, [&](const Graph& q) {
    return Result<Prepared>(InitializeFeatures(q, ext));
  });
  if (!infos.ok()) return infos.status();
  return infos->front();
}

Result<std::vector<EstimateInfo>> NeurSCEstimator::EstimateBatch(
    const std::vector<Graph>& queries) {
  NEURSC_SPAN(batch_span, "estimate/batch");
  NEURSC_COUNTER_INC("estimate.batches");
  return EstimateQueries(queries,
                         [this](const Graph& q) { return Prepare(q); });
}

Result<std::vector<EstimateInfo>> NeurSCEstimator::EstimateQueries(
    std::span<const Graph> queries,
    const std::function<Result<Prepared>(const Graph&)>& prepare) {
  NEURSC_COUNTER_ADD("estimate.queries",
                     static_cast<int64_t>(queries.size()));
  std::vector<EstimateInfo> infos;
  if (queries.empty()) return infos;
  const auto epoch = std::chrono::steady_clock::now();
  auto seconds_since_epoch = [epoch] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
  };

  // What each query's EstimateInfo is derived from.
  struct QueryRecord {
    std::optional<Prepared> prep;
    Status status;
    double prepare_start = 0.0;
    double prepare_end = 0.0;
    // The query's forward passes: tasks[task_begin, task_end).
    size_t task_begin = 0;
    size_t task_end = 0;
  };
  std::vector<QueryRecord> records(queries.size());

  // Phase 1: the prepare step, parallel across queries. It never touches
  // rng_, so running it out of order is safe.
  NEURSC_SPAN(prepare_span, "estimate/prepare");
  ParallelFor(queries.size(), [&](size_t q) {
    QueryRecord& record = records[q];
    record.prepare_start = seconds_since_epoch();
    auto prep = prepare(queries[q]);
    if (prep.ok()) {
      record.prep = std::move(prep).value();
    } else {
      record.status = prep.status();
    }
    record.prepare_end = seconds_since_epoch();
  });
  prepare_span.End();
  for (const QueryRecord& record : records) {
    if (!record.status.ok()) return record.status;
  }

  // Phase 2 (serial, query order): sampling decisions and forward-pass
  // seeds. This consumes rng_ exactly as sequential Estimate calls would,
  // which is what makes EstimateBatch match them bit-for-bit.
  std::vector<InferenceTask> tasks;
  for (size_t q = 0; q < queries.size(); ++q) {
    QueryRecord& record = records[q];
    const Prepared& prep = *record.prep;
    const auto& subs = prep.extraction.substructures;
    record.task_begin = tasks.size();
    record.task_end = tasks.size();
    if (prep.extraction.early_terminate || subs.empty()) {
      NEURSC_COUNTER_INC("estimate.early_terminated");
      continue;
    }
    std::vector<size_t> selected = SelectSubstructures(subs.size());
    std::vector<uint64_t> seeds = DrawTaskSeeds(selected.size());
    for (size_t k = 0; k < selected.size(); ++k) {
      tasks.push_back(InferenceTask{&queries[q], &subs[selected[k]],
                                    &prep.query_features,
                                    &prep.sub_features[selected[k]],
                                    seeds[k]});
    }
    record.task_end = tasks.size();
  }

  // Phase 3: one work pool over all (query, substructure) pairs.
  NEURSC_SPAN(infer_span, "estimate/infer");
  RunInferenceTasks(&tasks, epoch);
  infer_span.End();

  // Phase 4: per query, the reduction in selection order and the timings.
  // The inference interval is [first task start, last task end]; every
  // task starts after every prepare step finished, so
  // total >= extraction + inference. A query runs no task iff it
  // early-terminated: r_s sampling keeps at least one substructure.
  infos.reserve(queries.size());
  for (const QueryRecord& record : records) {
    const size_t total = record.prep->extraction.substructures.size();
    const size_t used = record.task_end - record.task_begin;
    double sum = 0.0;
    double infer_start = record.prepare_end;
    double infer_end = record.prepare_end;
    if (used > 0) {
      infer_start = tasks[record.task_begin].start_seconds;
      infer_end = tasks[record.task_begin].end_seconds;
    }
    for (size_t t = record.task_begin; t < record.task_end; ++t) {
      sum += tasks[t].prediction;
      infer_start = std::min(infer_start, tasks[t].start_seconds);
      infer_end = std::max(infer_end, tasks[t].end_seconds);
    }
    // Sec. 5.8: scale the sampled sum by the inverse sampled fraction.
    infos.push_back(EstimateInfo{
        .count = used == 0 ? 0.0
                           : sum * static_cast<double>(total) /
                                 static_cast<double>(used),
        .early_terminated = used == 0,
        .num_substructures = total,
        .num_used = used,
        .extraction_seconds = record.prepare_end - record.prepare_start,
        .inference_seconds = infer_end - infer_start,
        .total_seconds = infer_end - record.prepare_start,
    });
  }
  return infos;
}

}  // namespace neursc
