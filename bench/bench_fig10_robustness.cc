// Reproduces Figure 10: robustness to unseen query sizes on Yeast. Models
// are trained on Q16 only and evaluated on Q4/Q8/Q24/Q32; the paper's
// observation is overestimation on smaller and underestimation on larger
// unseen sizes, with NeurSC degrading far less than LSS.

#include <cstdio>

#include "bench_util.h"

namespace neursc {
namespace bench {
namespace {

/// Returns false if the dataset cannot be built or has no Q16 query.
bool Run() {
  BenchEnv env = BenchEnv::FromEnvironment();
  auto ds = BuildBenchDataset("Yeast", env, {4, 8, 16, 24, 32});
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return false;
  }

  // Train strictly on Q16.
  auto train_indices = ds->workload.IndicesOfSize(16);
  auto train = Gather(ds->workload, train_indices);
  if (train.empty()) {
    std::fprintf(stderr, "no Q16 queries fit the ground-truth budget\n");
    return false;
  }

  LssEstimator lss(ds->graph, DefaultLssOptions(env));
  auto neursc = NeurSCAdapter::Full(ds->graph, DefaultNeurSCConfig(env));
  (void)lss.Train(train);
  (void)neursc->Train(train);

  for (size_t size : {4u, 8u, 24u, 32u}) {
    auto indices = ds->workload.IndicesOfSize(size);
    if (indices.empty()) {
      std::printf("\n=== Figure 10: Q%zu — no queries within budget ===\n",
                  static_cast<size_t>(size));
      continue;
    }
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Figure 10: trained on Q16, tested on Q%zu (%zu queries)",
                  static_cast<size_t>(size), indices.size());
    PrintSection(title);
    PrintMethodRow(EvaluateMethod(&lss, ds->workload, indices));
    PrintMethodRow(EvaluateMethod(neursc.get(), ds->workload, indices));
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
