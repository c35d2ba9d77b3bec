#include "baselines/neursc_adapter.h"

namespace neursc {

NeurSCAdapter::NeurSCAdapter(const Graph& data, NeurSCConfig config,
                             std::string name)
    : estimator_(data, std::move(config)), name_(std::move(name)) {}

std::unique_ptr<NeurSCAdapter> NeurSCAdapter::Full(const Graph& data,
                                                   NeurSCConfig config) {
  config.west.use_inter = true;
  config.use_discriminator = true;
  config.use_substructure_extraction = true;
  config.metric = DistanceMetric::kWasserstein;
  return std::make_unique<NeurSCAdapter>(data, std::move(config), "NeurSC");
}

std::unique_ptr<NeurSCAdapter> NeurSCAdapter::IntraOnly(const Graph& data,
                                                        NeurSCConfig config) {
  config.west.use_inter = false;
  config.use_discriminator = false;
  config.use_substructure_extraction = true;
  return std::make_unique<NeurSCAdapter>(data, std::move(config), "NeurSC-I");
}

std::unique_ptr<NeurSCAdapter> NeurSCAdapter::Dual(const Graph& data,
                                                   NeurSCConfig config) {
  config.west.use_inter = true;
  config.use_discriminator = false;
  config.use_substructure_extraction = true;
  return std::make_unique<NeurSCAdapter>(data, std::move(config), "NeurSC-D");
}

std::unique_ptr<NeurSCAdapter> NeurSCAdapter::WithoutExtraction(
    const Graph& data, NeurSCConfig config) {
  config.use_substructure_extraction = false;
  return std::make_unique<NeurSCAdapter>(data, std::move(config),
                                         "NeurSC w/o SE");
}

std::unique_ptr<NeurSCAdapter> NeurSCAdapter::WithMetric(
    const Graph& data, NeurSCConfig config, DistanceMetric metric) {
  config.west.use_inter = true;
  config.use_discriminator = true;
  config.use_substructure_extraction = true;
  config.metric = metric;
  std::string name = std::string("NeurSC-");
  switch (metric) {
    case DistanceMetric::kWasserstein:
      name = "NeurSC";
      break;
    case DistanceMetric::kEuclidean:
      name += "EU";
      break;
    case DistanceMetric::kKL:
      name += "KL";
      break;
    case DistanceMetric::kJS:
      name += "JS";
      break;
  }
  return std::make_unique<NeurSCAdapter>(data, std::move(config), name);
}

Status NeurSCAdapter::Train(const std::vector<TrainingExample>& examples) {
  auto stats = estimator_.Train(examples);
  if (!stats.ok()) return stats.status();
  train_stats_ = std::move(stats).value();
  return Status::OK();
}

Result<double> NeurSCAdapter::EstimateCount(const Graph& query) {
  auto info = estimator_.Estimate(query);
  if (!info.ok()) return info.status();
  return info->count;
}

}  // namespace neursc
