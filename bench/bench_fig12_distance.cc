// Reproduces Figure 12: the discriminator distance-metric ablation on
// Yeast — Wasserstein (full NeurSC) vs Euclidean, KL and JS variants.

#include <cstdio>

#include "bench_util.h"

namespace neursc {
namespace bench {
namespace {

/// Returns false if the dataset cannot be built.
bool Run() {
  BenchEnv env = BenchEnv::FromEnvironment();
  auto ds = BuildBenchDataset("Yeast", env);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return false;
  }
  auto train = Gather(ds->workload, ds->split.train);

  std::vector<std::unique_ptr<NeurSCAdapter>> variants;
  variants.push_back(NeurSCAdapter::WithMetric(
      ds->graph, DefaultNeurSCConfig(env), DistanceMetric::kEuclidean));
  variants.push_back(NeurSCAdapter::WithMetric(
      ds->graph, DefaultNeurSCConfig(env), DistanceMetric::kKL));
  variants.push_back(NeurSCAdapter::WithMetric(
      ds->graph, DefaultNeurSCConfig(env), DistanceMetric::kJS));
  variants.push_back(NeurSCAdapter::WithMetric(
      ds->graph, DefaultNeurSCConfig(env), DistanceMetric::kWasserstein));

  for (auto& variant : variants) {
    Status st = variant->Train(train);
    if (!st.ok()) {
      std::fprintf(stderr, "train %s: %s\n", variant->Name().c_str(),
                   st.ToString().c_str());
    }
  }

  for (size_t size : ds->profile.query_sizes) {
    std::vector<size_t> indices;
    for (size_t i : ds->split.test) {
      if (ds->workload.sizes[i] == size) indices.push_back(i);
    }
    if (indices.empty()) continue;
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Figure 12: Yeast Q%zu (%zu queries)", size,
                  indices.size());
    PrintSection(title);
    for (auto& variant : variants) {
      PrintMethodRow(EvaluateMethod(variant.get(), ds->workload, indices));
    }
  }
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace neursc

int main(int argc, char** argv) {
  neursc::ObservabilitySession observability(&argc, argv);
  return neursc::bench::Run() ? 0 : 1;
}
