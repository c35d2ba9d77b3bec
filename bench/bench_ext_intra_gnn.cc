// Extension ablation backing the design choice of Sec. 5.2: the intra
// network must be as expressive as the 1-WL test. Compares full NeurSC
// with GIN intra layers against the same model with GraphSAGE-style mean
// aggregation (which cannot distinguish neighborhood multisets).

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

  NeurSCConfig gin_config = DefaultNeurSCConfig(env);
  auto with_gin = NeurSCAdapter::Full(ds->graph, gin_config);

  NeurSCConfig mean_config = DefaultNeurSCConfig(env);
  mean_config.west.intra_kind = IntraGnnKind::kMeanAggregator;
  auto with_mean = std::make_unique<NeurSCAdapter>(
      ds->graph, mean_config, "NeurSC (mean-agg)");

  (void)with_gin->Train(train);
  (void)with_mean->Train(train);

  for (size_t size : ds->profile.query_sizes) {
    std::vector<size_t> indices;
    for (size_t i : ds->split.test) {
      if (ds->workload.sizes[i] == size) indices.push_back(i);
    }
    if (indices.empty()) continue;
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Extension: intra-GNN ablation, Yeast Q%zu (%zu queries)",
                  size, indices.size());
    PrintSection(title);
    MethodResult gin_result =
        EvaluateMethod(with_gin.get(), ds->workload, indices);
    gin_result.name = "NeurSC (GIN)";
    PrintMethodRow(gin_result);
    PrintMethodRow(EvaluateMethod(with_mean.get(), ds->workload, indices));
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
