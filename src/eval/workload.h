#ifndef NEURSC_EVAL_WORKLOAD_H_
#define NEURSC_EVAL_WORKLOAD_H_

#include <vector>

#include "common/status.h"
#include "core/neursc.h"
#include "graph/graph.h"

namespace neursc {

/// Knobs for workload construction.
struct WorkloadOptions {
  /// Per-query ground-truth enumeration budget. Queries whose exact count
  /// cannot be computed within the budget are dropped, mirroring the
  /// paper's 30-minute selection rule (Sec. 6.1) at in-harness scale.
  double ground_truth_time_limit = 1.0;
  /// Probability of keeping non-spanning-tree edges in extracted queries
  /// (1.0 = induced, dense queries).
  double edge_keep_probability = 0.8;
  /// Drop queries isomorphic to an already-accepted query of the same
  /// size (exact labeled-isomorphism test; keeps workloads diverse).
  bool deduplicate_isomorphic = false;
  /// Fraction of each size's quota filled with *unmatchable* queries
  /// (count 0), produced by perturbing labels of extracted queries until
  /// the exact count is 0. Real workloads contain such queries; they
  /// exercise estimators' early-termination paths. 0 disables.
  double unmatchable_fraction = 0.0;
  uint64_t seed = 7;
};

/// A labeled query workload on one data graph: queries plus exact counts.
struct Workload {
  /// Query size (vertex count) of examples[i].
  std::vector<size_t> sizes;
  std::vector<TrainingExample> examples;

  /// Indices of examples with the given query size.
  std::vector<size_t> IndicesOfSize(size_t size) const;
};

/// Extracts `per_size` queries for each size in `sizes` from `data` and
/// computes exact ground truth. Queries that exceed the enumeration budget
/// or that fail extraction are replaced (up to an attempt cap); the
/// workload may come up short on hostile size/data combinations, which is
/// reported in the returned workload rather than as an error.
Result<Workload> BuildWorkload(const Graph& data,
                               const std::vector<size_t>& sizes,
                               size_t per_size,
                               const WorkloadOptions& options = {});

/// A train/test partition (indices into a Workload).
struct WorkloadSplit {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

/// Random `train_fraction` split (the paper uses 80/20).
WorkloadSplit SplitWorkload(const Workload& workload, double train_fraction,
                            uint64_t seed);

/// Like SplitWorkload but stratified per query size, so every size
/// contributes proportionally to both halves.
WorkloadSplit StratifiedSplit(const Workload& workload,
                              double train_fraction, uint64_t seed);

/// Gathers the examples at `indices`.
std::vector<TrainingExample> Gather(const Workload& workload,
                                    const std::vector<size_t>& indices);

/// Per-query outcome of a batch evaluation run.
struct BatchEvaluation {
  /// EstimateBatch results, aligned with the `indices` passed in.
  std::vector<EstimateInfo> infos;
  /// SignedQError(estimate, ground truth) per query, same order.
  std::vector<double> signed_qerrors;
  /// Wall time of the EstimateBatch call.
  double batch_seconds = 0.0;
};

/// Estimates the workload examples at `indices` through
/// NeurSCEstimator::EstimateBatch — the queries' substructure forward
/// passes share one work pool — and scores each against its ground truth.
/// Per-query results are identical to sequential Estimate calls at every
/// NEURSC_THREADS value (see docs/threading.md).
Result<BatchEvaluation> EvaluateBatch(NeurSCEstimator* estimator,
                                      const Workload& workload,
                                      const std::vector<size_t>& indices);

}  // namespace neursc

#endif  // NEURSC_EVAL_WORKLOAD_H_
