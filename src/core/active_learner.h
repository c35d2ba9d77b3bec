#ifndef NEURSC_CORE_ACTIVE_LEARNER_H_
#define NEURSC_CORE_ACTIVE_LEARNER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "core/neursc.h"
#include "graph/graph.h"

namespace neursc {

/// Active learning for count estimators, in the spirit of ALSS (Zhao et
/// al. pair LSS with an active learner; the NeurSC paper compares against
/// plain LSS but cites the AL extension). The loop is
///
///   1. Train an ensemble of two NeurSC estimators (different seeds) on
///      the labeled pool.
///   2. Score every unlabeled candidate query by ensemble disagreement
///      (the q-error between the members' predictions — a label-free
///      uncertainty proxy).
///   3. Move the most uncertain queries to the labeled pool, computing
///      their exact counts (the expensive "oracle" call, 2 s budget each),
///      and retrain.
class ActiveLearner {
 public:
  struct Options {
    size_t rounds = 2;
    /// Queries labeled per round.
    size_t acquisitions_per_round = 8;
    uint64_t seed = 77;
  };

  /// `data` is the data graph the counts refer to; every estimator the
  /// learner builds uses `config` with its seed overridden.
  ActiveLearner(const Graph& data, NeurSCConfig config, Options options);

  /// Runs the loop: starts from `labeled`, draws acquisitions from
  /// `unlabeled_pool` (queries without counts). Returns the final labeled
  /// set (inputs + acquisitions with oracle counts); model() is then
  /// trained on that final set with the base seed.
  Result<std::vector<TrainingExample>> Run(
      std::vector<TrainingExample> labeled,
      const std::vector<Graph>& unlabeled_pool);

  /// Disagreement score of the last Run() per pool index (diagnostics).
  const std::vector<double>& last_scores() const { return last_scores_; }

  /// The last trained estimator; null before Run().
  NeurSCEstimator* model() { return model_.get(); }

 private:
  /// Replaces model() with a fresh estimator seeded `seed`, trained on
  /// `labeled`.
  Status TrainModel(uint64_t seed,
                    const std::vector<TrainingExample>& labeled);

  const Graph& data_;
  NeurSCConfig config_;
  Options options_;
  std::unique_ptr<NeurSCEstimator> model_;
  std::vector<double> last_scores_;
};

}  // namespace neursc

#endif  // NEURSC_CORE_ACTIVE_LEARNER_H_
