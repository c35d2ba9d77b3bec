#ifndef NEURSC_CORE_NEURSC_H_
#define NEURSC_CORE_NEURSC_H_

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/discriminator.h"
#include "core/feature_init.h"
#include "core/west.h"
#include "graph/graph.h"
#include "matching/candidate_filter.h"
#include "matching/substructure.h"
#include "nn/optimizer.h"
#include "nn/tape.h"

namespace neursc {

/// End-to-end configuration of the NeurSC estimator (Alg. 1 + Alg. 3).
/// Defaults are the paper's Sec. 6.1 settings scaled down for in-harness
/// runs (the paper trains 30-150 epochs at 128-dim; see DESIGN.md).
struct NeurSCConfig {
  WEstConfig west;
  CandidateFilterOptions filter;

  // --- Training (Alg. 3) ---
  // Learning rates, beta, iter_omega and the clips are neursc.cc constants.
  size_t batch_size = 20;  // n_batch
  size_t disc_hidden = 32;
  /// Epochs trained with L_c only before the adversarial phase starts
  /// (Sec. 5.6's two-stage schedule avoiding representation collapse).
  size_t pretrain_epochs = 4;
  /// Total training epochs (pretrain + adversarial).
  size_t epochs = 12;
  /// Fraction of training examples held out for validation-based early
  /// stopping; 0 disables early stopping. When enabled, training stops
  /// after `early_stop_patience` epochs without validation improvement
  /// and the best-validation weights are restored.
  double validation_fraction = 0.0;
  size_t early_stop_patience = 3;

  // --- Ablations / variants ---
  /// false => NeurSC-D (dual GNN, no discriminator).
  bool use_discriminator = true;
  /// false => "NeurSC w/o SE": the whole data graph is the single
  /// substructure of every query, built with its features once per
  /// estimator; forces intra-only, no discriminator.
  bool use_substructure_extraction = true;
  /// Discriminator distance metric (Fig. 12 variants).
  DistanceMetric metric = DistanceMetric::kWasserstein;
  /// Substructure sample rate r_s at inference time (Sec. 5.8).
  double sample_rate = 1.0;

  uint64_t seed = 99;
};

/// One supervised example: a query graph and its ground-truth count on the
/// estimator's data graph.
struct TrainingExample {
  Graph query;
  double count = 0.0;
};

/// Per-query estimation output with a timing breakdown, filled in from the
/// query's own record in the estimation pipeline that every Estimate* entry
/// point runs: its prepare interval and its forward passes' intervals.
struct EstimateInfo {
  double count = 0.0;
  /// True iff estimation short-circuited to 0 (empty candidate set or
  /// candidate universe smaller than the query).
  bool early_terminated = false;
  size_t num_substructures = 0;
  /// Substructures actually evaluated (< num_substructures when r_s < 1).
  size_t num_used = 0;
  /// The query's prepare step: candidate filtering + substructure split +
  /// feature initialization. Features of the given substructures and of
  /// the query only for EstimateOnSubstructures; the query's features only
  /// under w/o SE.
  double extraction_seconds = 0.0;
  /// First forward pass start to last one end; 0 if early-terminated.
  double inference_seconds = 0.0;
  /// Prepare start to last forward pass end (>= extraction + inference).
  double total_seconds = 0.0;
  /// What the extraction found: candidate counts, components and the
  /// largest substructure. All zero without extraction. When the filter
  /// left some CS(u) empty, extraction stops before the split: it keeps
  /// the candidate counts and names the first empty set's query vertex.
  ExtractionStats extraction;
};

/// Training progress summary.
struct TrainStats {
  std::vector<double> epoch_mean_loss;
  /// Mean validation q-error per epoch; empty when validation is off.
  std::vector<double> epoch_validation_qerror;
  std::vector<double> epoch_seconds;
  double total_seconds = 0.0;
  /// Examples with at least one substructure, counted before the
  /// validation split, so the held-out validation examples are included
  /// (and so are they in perfbench's `train_examples_per_s`).
  size_t examples_used = 0;
  /// Examples dropped because extraction early-terminated or left no
  /// substructure.
  size_t examples_skipped = 0;
  /// True iff early stopping ended training before config.epochs.
  bool early_stopped = false;
};

/// The NeurSC estimator bound to one data graph: substructure extraction
/// (Sec. 4) plus the WEst network (Sec. 5) and its adversarial trainer.
///
/// Estimation (Alg. 1) is one pipeline: prepare each query (extraction and
/// feature initialization), select its substructures at r_s, draw one seed
/// per forward pass, run every (query, substructure) forward pass in one
/// work pool, and reduce. Estimate is a batch of one; EstimateOnSubstructures
/// is a batch of one whose prepare step takes the caller's substructures
/// instead of extracting. Train runs the same prepare step on its examples.
///
/// Threading (see docs/threading.md): the estimator parallelizes *inside*
/// Estimate/EstimateOnSubstructures/EstimateBatch and Train.
///
/// Every pass (inference, training example, validation, critic update)
/// runs on the calling thread's ThreadTape, so warmed-up arenas are reused
/// across queries, examples and epochs; each task holds the scope for the
/// duration of its pass.
///
/// Inference: per-substructure WEst forward passes each run with a private
/// Rng, and the per-substructure counts are reduced in index order.
/// Steady-state inference performs no arena allocation.
///
/// Training: within a batch the parameters are frozen, so the per-example
/// forward+backward passes run over ParallelFor, each with a tape-local
/// GradientSink; the sinks are then reduced into Parameter::grad serially
/// in example-index order before the optimizer step, and the critic's
/// inner maximization (Alg. 3 lines 10-12) runs serially afterwards. The per-epoch validation q-error loop is
/// parallelized the same way (forward-only, ordered reduction).
///
/// In both modes every random decision (the r_s substructure sample, the
/// example shuffle, and the per-forward-pass bipartite linking seeds) is
/// drawn from the estimator RNG serially before the parallel region, so
/// results are bit-identical for every NEURSC_THREADS value. The estimator
/// object itself is NOT safe for concurrent calls from multiple caller
/// threads (each call advances rng_).
class NeurSCEstimator {
 public:
  NeurSCEstimator(const Graph& data, NeurSCConfig config);

  /// Trains on `examples` following Alg. 3 (with the L_c-only pretraining
  /// stage of Sec. 5.6). Deterministic given the config seed, at every
  /// NEURSC_THREADS value.
  Result<TrainStats> Train(const std::vector<TrainingExample>& examples);

  /// Estimates c(q) for one query (Alg. 1), sampling substructures at the
  /// configured r_s. Substructure forward passes run in parallel; the
  /// result does not depend on the thread count. A non-finite estimate
  /// (e.g. from NaN weights) is an Internal error, never a returned count.
  Result<EstimateInfo> Estimate(const Graph& query);

  /// Estimate using externally supplied substructures (the "perfect
  /// substructure" ablation feeds ground-truth-derived ones): the same
  /// pipeline as Estimate, with `ext` in place of ExtractSubstructures, so
  /// it samples at r_s and scales the sum by |ext| / used like Estimate
  /// does (at r_s = 1 that is sum * n / n, which can differ from the plain
  /// sum in the last bit). EstimateOnSubstructures(q,
  /// ExtractSubstructures(q, data, filter)) therefore equals Estimate(q)
  /// exactly. Returns InvalidArgument for an empty query, and for an `ext`
  /// that does not fit it: a substructure without exactly |V(q)| local
  /// candidate sets, or a candidate id outside its substructure.
  Result<EstimateInfo> EstimateOnSubstructures(const Graph& query,
                                               const ExtractionResult& ext);

  /// Estimates every query of a batch, scheduling the queries'
  /// substructure forward passes into one shared work pool (queries x
  /// substructures), after the parallel prepare step. Consumes rng_ in
  /// query order exactly as sequential Estimate calls would, so
  /// EstimateBatch(qs)[i] equals the i-th sequential Estimate(qs[i]) from
  /// the same starting state, at any thread count. Fails with the status
  /// of the first (lowest-index) query whose prepare step fails, or with
  /// Internal if a query's estimate is not finite.
  Result<std::vector<EstimateInfo>> EstimateBatch(
      const std::vector<Graph>& queries);

  /// Persists the trained weights (estimation network, and the critic if
  /// enabled). Load requires an estimator constructed with an identical
  /// configuration.
  Status SaveModel(const std::string& path);
  Status LoadModel(const std::string& path);

  /// Adjusts the inference-time substructure sample rate r_s (Sec. 5.8)
  /// without retraining; clamped to (0, 1].
  void set_sample_rate(double rate) {
    config_.sample_rate = std::min(std::max(rate, 1e-6), 1.0);
  }

  const NeurSCConfig& config() const { return config_; }
  const Graph& data() const { return data_; }
  WEstModel& model() { return *model_; }
  /// Null when the configuration disables the discriminator.
  Discriminator* critic() { return critic_.get(); }

 private:
  /// A query's substructures and their Eq. 1 features: seed-independent
  /// and immutable once built, so queries, training examples and batches
  /// can share one (w/o SE shares the estimator's whole-graph copy).
  struct SubstructureSet {
    SubstructureSet(ExtractionResult ext,
                    const FeatureInitializer& initializer);
    ExtractionResult extraction;
    std::vector<Matrix> features;
  };

  /// A query's prepare step output: its own features, its substructures,
  /// and when the step ran.
  struct Prepared {
    Matrix query_features;
    std::shared_ptr<const SubstructureSet> subs;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
  };

  /// One WEst forward pass of the inference work pool: an independent
  /// (query, substructure) evaluation with a pre-drawn RNG seed. Filled-in
  /// fields (prediction, timing) are written only by the worker that owns
  /// the task's index, so a task vector can be processed by ParallelFor.
  struct InferenceTask {
    const Graph* query = nullptr;
    const Substructure* sub = nullptr;
    const Matrix* query_features = nullptr;
    const Matrix* sub_features = nullptr;
    /// Seed for the task-private Rng (bipartite linking edges, Sec. 5.3);
    /// drawn from rng_ serially so it is thread-count independent.
    uint64_t seed = 0;
    // --- Outputs (written by the evaluating worker) ---
    double prediction = 0.0;
    /// Wall-clock interval of the forward pass.
    std::chrono::steady_clock::time_point start{};
    std::chrono::steady_clock::time_point end{};
  };

  /// Detached (query_repr, sub_repr) pair captured during a batch's
  /// parallel forward passes, consumed by the serial critic updates that
  /// follow (Alg. 3 lines 10-12). sub_index identifies the substructure
  /// within the example's ExtractionResult, for the candidate sets.
  struct CriticUpdateInput {
    size_t sub_index = 0;
    Matrix query_repr;
    Matrix sub_repr;
  };

  /// The prepare step of Alg. 1 and Alg. 3, run on every query in
  /// parallel. It rejects an empty query, then takes the query's
  /// substructures from `given` when it is non-null (after checking that
  /// it fits the query), from the whole-graph copy under w/o SE, or from
  /// ExtractSubstructures, and computes the query's features. Never
  /// touches rng_. Fails with the status of the lowest-index query that
  /// fails.
  Result<std::vector<Prepared>> PrepareQueries(
      std::span<const Graph* const> queries, const ExtractionResult* given);
  /// The estimation pipeline behind every Estimate* entry point: prepares
  /// every query, then selects substructures and draws seeds serially in
  /// query order, evaluates all forward passes in one work pool and
  /// reduces each query in selection order. Fails with the prepare step's
  /// status, or with Internal naming the first query whose estimate is NaN
  /// or inf.
  Result<std::vector<EstimateInfo>> EstimateQueries(
      std::span<const Graph> queries, const ExtractionResult* given);
  /// Evaluates every task over ParallelFor, each on its thread's
  /// ThreadTape with its own Rng.
  void RunInferenceTasks(std::vector<InferenceTask>* tasks);
  /// r_s sampling (Sec. 5.8): the substructure indices to evaluate, in
  /// evaluation order. Advances rng_ when sampling kicks in.
  std::vector<size_t> SelectSubstructures(size_t total);
  /// Serially draws one forward-pass seed per selected substructure.
  std::vector<uint64_t> DrawTaskSeeds(size_t count);
  /// Runs the discriminator's inner maximization (Alg. 3 lines 10-12) on
  /// detached representations: one critic step, as iter_omega = 1.
  void UpdateCritic(const Matrix& query_repr, const Matrix& sub_repr,
                    const std::vector<std::vector<VertexId>>& candidates);
  /// Forward + loss for one query on `tape` (followed by Backward in
  /// training, read forward-only by the validation loop); returns the loss
  /// Var, or an invalid Var when the query has no usable substructures.
  /// `rng` drives the bipartite linking edges; callers in parallel regions
  /// pass a task-private Rng seeded serially. The critic (when scored) is
  /// read frozen; if `critic_inputs` is non-null, the detached
  /// representations needed for its later serial updates are appended
  /// there.
  Var BuildQueryLoss(Tape* tape, const Graph& query, const Prepared& prep,
                     double target_count, bool adversarial, Rng* rng,
                     std::vector<CriticUpdateInput>* critic_inputs);

  const Graph& data_;
  NeurSCConfig config_;
  FeatureInitializer features_;
  std::unique_ptr<WEstModel> model_;
  std::unique_ptr<Discriminator> critic_;
  std::unique_ptr<AdamOptimizer> opt_theta_;
  std::unique_ptr<AdamOptimizer> opt_omega_;
  /// w/o SE only: the whole data graph as every query's one substructure,
  /// built once. Null when extraction is on.
  std::shared_ptr<const SubstructureSet> whole_graph_;
  Rng rng_;
};

}  // namespace neursc

#endif  // NEURSC_CORE_NEURSC_H_
