#ifndef NEURSC_BASELINES_NEURSC_ADAPTER_H_
#define NEURSC_BASELINES_NEURSC_ADAPTER_H_

#include <memory>
#include <string>

#include "baselines/estimator.h"
#include "core/neursc.h"

namespace neursc {

/// Adapts NeurSCEstimator (src/core) to the benchmark-facing
/// CardinalityEstimator interface, with named constructors for each paper
/// variant.
class NeurSCAdapter : public CardinalityEstimator {
 public:
  NeurSCAdapter(const Graph& data, NeurSCConfig config, std::string name);

  /// Full NeurSC (intra + inter + Wasserstein discriminator).
  static std::unique_ptr<NeurSCAdapter> Full(const Graph& data,
                                             NeurSCConfig config);
  /// NeurSC-I: intra-graph network only.
  static std::unique_ptr<NeurSCAdapter> IntraOnly(const Graph& data,
                                                  NeurSCConfig config);
  /// NeurSC-D: dual networks, no discriminator.
  static std::unique_ptr<NeurSCAdapter> Dual(const Graph& data,
                                             NeurSCConfig config);
  /// NeurSC w/o SE: no substructure extraction.
  static std::unique_ptr<NeurSCAdapter> WithoutExtraction(const Graph& data,
                                                          NeurSCConfig config);
  /// NeurSC-EU / NeurSC-KL / NeurSC-JS (Fig. 12 metric variants).
  static std::unique_ptr<NeurSCAdapter> WithMetric(const Graph& data,
                                                   NeurSCConfig config,
                                                   DistanceMetric metric);

  std::string Name() const override { return name_; }
  Status Train(const std::vector<TrainingExample>& examples) override;
  Result<double> EstimateCount(const Graph& query) override;

  NeurSCEstimator& estimator() { return estimator_; }
  const TrainStats& train_stats() const { return train_stats_; }

 private:
  NeurSCEstimator estimator_;
  std::string name_;
  TrainStats train_stats_;
};

}  // namespace neursc

#endif  // NEURSC_BASELINES_NEURSC_ADAPTER_H_
