#include "core/active_learner.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/logging.h"
#include "matching/enumeration.h"

namespace neursc {

namespace {

constexpr size_t kEnsembleSize = 2;
// Budget for each oracle (exact counting) call.
constexpr double kOracleTimeLimitSeconds = 2.0;

// Local q-error (src/eval depends on src/core, so core cannot pull
// eval/metrics.h in).
double PairwiseQError(double a, double b) {
  double x = std::max(1.0, a);
  double y = std::max(1.0, b);
  return std::max(x / y, y / x);
}

}  // namespace

ActiveLearner::ActiveLearner(const Graph& data, NeurSCConfig config,
                             Options options)
    : data_(data), config_(std::move(config)), options_(options) {}

Status ActiveLearner::TrainModel(uint64_t seed,
                                 const std::vector<TrainingExample>& labeled) {
  NeurSCConfig seeded = config_;
  seeded.seed = seed;
  model_ = std::make_unique<NeurSCEstimator>(data_, seeded);
  return model_->Train(labeled).status();
}

Result<std::vector<TrainingExample>> ActiveLearner::Run(
    std::vector<TrainingExample> labeled,
    const std::vector<Graph>& unlabeled_pool) {
  if (labeled.empty()) {
    return Status::InvalidArgument("need a non-empty initial labeled set");
  }
  std::vector<bool> taken(unlabeled_pool.size(), false);

  for (size_t round = 0; round < options_.rounds; ++round) {
    // Ensemble predictions on the remaining pool.
    std::vector<std::vector<double>> member_predictions(kEnsembleSize);
    for (size_t member = 0; member < kEnsembleSize; ++member) {
      NEURSC_RETURN_IF_ERROR(
          TrainModel(options_.seed + 1000 * round + member, labeled));
      member_predictions[member].assign(unlabeled_pool.size(), -1.0);
      // One EstimateBatch call covers the whole remaining pool, sharing
      // one inference work pool across the queries' substructures. A
      // failed batch falls back to per-query Estimate calls: EstimateBatch
      // returns prepare-phase errors before consuming any estimator
      // randomness, so the fallback sees the same RNG state sequential
      // estimates always did.
      std::vector<size_t> open_indices;
      std::vector<Graph> open_queries;
      for (size_t i = 0; i < unlabeled_pool.size(); ++i) {
        if (taken[i]) continue;
        open_indices.push_back(i);
        open_queries.push_back(unlabeled_pool[i]);
      }
      auto batch = model_->EstimateBatch(open_queries);
      if (batch.ok()) {
        NEURSC_CHECK(batch->size() == open_indices.size());
        for (size_t k = 0; k < open_indices.size(); ++k) {
          member_predictions[member][open_indices[k]] = (*batch)[k].count;
        }
      } else {
        for (size_t i : open_indices) {
          auto est = model_->Estimate(unlabeled_pool[i]);
          if (est.ok()) member_predictions[member][i] = est->count;
        }
      }
    }

    // Disagreement = the q-error between the two members' predictions.
    last_scores_.assign(unlabeled_pool.size(), 0.0);
    for (size_t i = 0; i < unlabeled_pool.size(); ++i) {
      double pa = member_predictions[0][i];
      double pb = member_predictions[1][i];
      if (taken[i] || pa < 0.0 || pb < 0.0) continue;
      last_scores_[i] = PairwiseQError(pa, pb);
    }

    // Acquire the most uncertain queries and label them with the oracle.
    std::vector<size_t> order(unlabeled_pool.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return last_scores_[a] > last_scores_[b];
    });
    size_t acquired = 0;
    for (size_t i : order) {
      if (acquired >= options_.acquisitions_per_round) break;
      if (taken[i] || last_scores_[i] <= 0.0) continue;
      EnumerationOptions eopts;
      eopts.time_limit_seconds = kOracleTimeLimitSeconds;
      auto counted =
          CountSubgraphIsomorphisms(unlabeled_pool[i], data_, eopts);
      if (!counted.ok() || !counted->exact) continue;  // over budget: skip
      taken[i] = true;
      labeled.push_back(TrainingExample{
          unlabeled_pool[i], static_cast<double>(counted->count)});
      ++acquired;
    }
    NEURSC_LOG(Debug) << "active round " << round << ": acquired "
                      << acquired << " queries (pool "
                      << unlabeled_pool.size() << ")";
    if (acquired == 0) break;  // pool exhausted or oracle starved
  }

  // Final training pass on the enlarged labeled set with the base seed.
  NEURSC_RETURN_IF_ERROR(TrainModel(options_.seed, labeled));
  return labeled;
}

}  // namespace neursc
