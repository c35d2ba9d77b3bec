#ifndef NEURSC_CORE_NEURSC_H_
#define NEURSC_CORE_NEURSC_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
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
  double learning_rate = 1e-3;         // alpha_theta
  double disc_learning_rate = 1e-3;    // alpha_omega
  size_t batch_size = 20;              // n_batch
  /// beta of Eq. 11, balancing L_c against L_w.
  double beta = 0.8;
  /// iter_omega: discriminator steps per (query, substructure) pair.
  int disc_iters = 1;
  size_t disc_hidden = 32;
  float disc_clip = 0.01f;
  /// Epochs trained with L_c only before the adversarial phase starts
  /// (Sec. 5.6's two-stage schedule avoiding representation collapse).
  size_t pretrain_epochs = 4;
  /// Total training epochs (pretrain + adversarial).
  size_t epochs = 12;
  double grad_clip_norm = 5.0;
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
  /// substructure; forces intra-only, no discriminator.
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
  /// Candidate filtering + substructure split + feature initialization
  /// (features only for EstimateOnSubstructures).
  double extraction_seconds = 0.0;
  /// First forward pass start to last one end; 0 if early-terminated.
  double inference_seconds = 0.0;
  /// Prepare start to last forward pass end (>= extraction + inference).
  double total_seconds = 0.0;
};

/// Training progress summary.
struct TrainStats {
  std::vector<double> epoch_mean_loss;
  /// Mean validation q-error per epoch; empty when validation is off.
  std::vector<double> epoch_validation_qerror;
  std::vector<double> epoch_seconds;
  double total_seconds = 0.0;
  size_t examples_used = 0;
  size_t examples_skipped = 0;
  /// True iff early stopping ended training before config.epochs.
  bool early_stopped = false;
};

class PreparedQueryCache;

/// The NeurSC estimator bound to one data graph: substructure extraction
/// (Sec. 4) plus the WEst network (Sec. 5) and its adversarial trainer.
///
/// Estimation (Alg. 1) is one pipeline: prepare each query (extraction and
/// feature initialization), select its substructures at r_s, draw one seed
/// per forward pass, run every (query, substructure) forward pass in one
/// work pool, and reduce. Estimate is a batch of one; EstimateOnSubstructures
/// is a batch of one whose prepare step skips extraction.
///
/// Threading (see docs/threading.md): the estimator parallelizes *inside*
/// Estimate/EstimateOnSubstructures/EstimateBatch and Train.
///
/// Inference, validation and critic passes run on Tapes leased from one
/// per-estimator pool (tape_pool_), so warmed-up arenas are reused across
/// queries and epochs; each task holds an exclusive lease for the duration
/// of its pass.
///
/// Inference: per-substructure WEst forward passes each run on their own
/// leased Tape with a private Rng, and the per-substructure counts are
/// reduced in index order. Steady-state inference performs no arena
/// allocation.
///
/// Training: within a batch the parameters are frozen, so the per-example
/// forward+backward passes run over ParallelFor, each on its own Tape with
/// a tape-local GradientSink; the sinks are then reduced into
/// Parameter::grad serially in example-index order before the optimizer
/// step, and the critic's inner maximization (Alg. 3 lines 10-12) runs
/// serially afterwards. The per-epoch validation q-error loop is
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
  /// Extraction + feature computation for one query. Immutable once built;
  /// both are seed-independent functions of (data graph, query, config), so
  /// Prepared data can be shared across estimator instances constructed
  /// with the same data graph and filter/feature settings (see
  /// PreparedQueryCache).
  struct Prepared {
    ExtractionResult extraction;
    Matrix query_features;
    std::vector<Matrix> sub_features;
  };

  NeurSCEstimator(const Graph& data, NeurSCConfig config);

  /// Trains on `examples` following Alg. 3 (with the L_c-only pretraining
  /// stage of Sec. 5.6). Deterministic given the config seed, at every
  /// NEURSC_THREADS value. When `cache` is non-null, per-query extraction
  /// and feature results are looked up / deposited there instead of being
  /// recomputed (the active-learning ensemble retrains many estimators on
  /// the same labeled set).
  Result<TrainStats> Train(const std::vector<TrainingExample>& examples,
                           PreparedQueryCache* cache = nullptr);

  /// Estimates c(q) for one query (Alg. 1), sampling substructures at the
  /// configured r_s. Substructure forward passes run in parallel; the
  /// result does not depend on the thread count.
  Result<EstimateInfo> Estimate(const Graph& query);

  /// Estimate using externally supplied substructures (the "perfect
  /// substructure" ablation feeds ground-truth-derived ones): the same
  /// pipeline as Estimate, with `ext` in place of ExtractSubstructures, so
  /// it samples at r_s and scales the sum by |ext| / used like Estimate
  /// does (at r_s = 1 that is sum * n / n, which can differ from the plain
  /// sum in the last bit). EstimateOnSubstructures(q,
  /// ExtractSubstructures(q, data, filter)) therefore equals Estimate(q)
  /// exactly.
  Result<EstimateInfo> EstimateOnSubstructures(const Graph& query,
                                               const ExtractionResult& ext);

  /// Estimates every query of a batch, scheduling the queries'
  /// substructure forward passes into one shared work pool (queries x
  /// substructures), after a parallel extraction pass. Consumes rng_ in
  /// query order exactly as sequential Estimate calls would, so
  /// EstimateBatch(qs)[i] equals the i-th sequential Estimate(qs[i]) from
  /// the same starting state, at any thread count. Fails with the status
  /// of the first (lowest-index) query whose extraction fails.
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
    /// Wall-clock interval of the forward pass, seconds relative to the
    /// epoch passed to RunInferenceTasks.
    double start_seconds = 0.0;
    double end_seconds = 0.0;
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

  /// Prepare step of a query: Extract, then InitializeFeatures.
  Result<Prepared> Prepare(const Graph& query);
  /// Substructure extraction (Sec. 4), or the whole data graph as the one
  /// substructure when extraction is disabled.
  Result<ExtractionResult> Extract(const Graph& query);
  /// Feature initialization of the query and of every substructure.
  Prepared InitializeFeatures(const Graph& query, ExtractionResult extraction);
  /// The estimation pipeline behind every Estimate* entry point: runs
  /// `prepare` on every query in parallel, then selects substructures and
  /// draws seeds serially in query order, evaluates all forward passes in
  /// one work pool and reduces each query in selection order. Fails with
  /// the status of the lowest-index query whose prepare step fails.
  Result<std::vector<EstimateInfo>> EstimateQueries(
      std::span<const Graph> queries,
      const std::function<Result<Prepared>(const Graph&)>& prepare);
  /// Evaluates every task over ParallelFor, one pooled Tape + Rng per
  /// task.
  void RunInferenceTasks(std::vector<InferenceTask>* tasks,
                         std::chrono::steady_clock::time_point epoch);
  /// r_s sampling (Sec. 5.8): the substructure indices to evaluate, in
  /// evaluation order. Advances rng_ when sampling kicks in.
  std::vector<size_t> SelectSubstructures(size_t total);
  /// Serially draws one forward-pass seed per selected substructure.
  std::vector<uint64_t> DrawTaskSeeds(size_t count);
  /// Runs the discriminator's inner maximization (Alg. 3 lines 10-12) on
  /// detached representations.
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
  /// Reusable workspaces for inference, validation and critic passes;
  /// grows to peak concurrency and keeps the warmed-up arenas thereafter.
  TapePool tape_pool_;
  Rng rng_;
};

/// Shared cache of per-query Prepared data (extraction + features).
/// Extraction and feature initialization are seed-independent functions of
/// (query, data graph, filter and feature settings), so an entry is keyed
/// by all three: the query's and the data graph's Graph::Fingerprint() and
/// a hash of the settings. A hit also compares the stored query, so a
/// fingerprint collision misses instead of returning another query's
/// data. Estimators over different data graphs or settings may share one
/// cache; the active-learning ensemble, which retrains every member on the
/// same growing labeled set, is the intended user. Thread-safe: Train's
/// parallel prepare pass probes it from worker threads.
class PreparedQueryCache {
 public:
  PreparedQueryCache() = default;
  PreparedQueryCache(const PreparedQueryCache&) = delete;
  PreparedQueryCache& operator=(const PreparedQueryCache&) = delete;

  size_t size() const NEURSC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return entries_.size();
  }
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  void Clear() NEURSC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    entries_.clear();
  }

 private:
  friend class NeurSCEstimator;

  /// Fingerprints of the query and the data graph, and the hash of the
  /// filter and feature settings.
  struct Key {
    uint64_t query = 0;
    uint64_t data = 0;
    uint64_t settings = 0;
    bool operator==(const Key&) const = default;
  };
  struct Entry {
    Graph query;
    std::shared_ptr<const NeurSCEstimator::Prepared> prepared;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.query ^ (k.data * 0x9e3779b97f4a7c15ULL) ^
                                 (k.settings * 0xc2b2ae3d27d4eb4fULL));
    }
  };

  /// Null on miss (counts toward misses()).
  std::shared_ptr<const NeurSCEstimator::Prepared> Lookup(
      const Key& key, const Graph& query) NEURSC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.query != query) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second.prepared;
  }

  /// Returns the winning entry: `value`, or the existing one if another
  /// thread inserted the same query first (both are equal — Prepared is a
  /// deterministic function of the key's inputs). A different query under
  /// the same key keeps the slot; `value` is returned uncached.
  std::shared_ptr<const NeurSCEstimator::Prepared> Insert(
      const Key& key, const Graph& query,
      std::shared_ptr<const NeurSCEstimator::Prepared> value)
      NEURSC_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    auto [it, inserted] = entries_.emplace(key, Entry{query, value});
    return it->second.query == query ? it->second.prepared : value;
  }

  /// Guards the entry map; hit/miss tallies are lock-free atomics.
  mutable Mutex mu_;
  std::unordered_map<Key, Entry, KeyHash> entries_ NEURSC_GUARDED_BY(mu_);
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace neursc

#endif  // NEURSC_CORE_NEURSC_H_
