// Reproduces Figure 8: q-error on Yeast bucketed by the range of the true
// count, for the learned methods (NeurSC vs LSS plus the NeurSC variants).

#include <cmath>
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

  LssEstimator lss(ds->graph, DefaultLssOptions(env));
  auto neursc = NeurSCAdapter::Full(ds->graph, DefaultNeurSCConfig(env));
  (void)lss.Train(train);
  (void)neursc->Train(train);

  // Buckets of true counts by decade pairs, as in the figure.
  struct Bucket {
    double lo;
    double hi;
    const char* label;
  };
  const Bucket buckets[] = {
      {0, 1e2, "[1, 1e2)"},
      {1e2, 1e4, "[1e2, 1e4)"},
      {1e4, 1e6, "[1e4, 1e6)"},
      {1e6, 1e12, "[1e6, +)"},
  };

  for (const Bucket& bucket : buckets) {
    std::vector<size_t> indices;
    for (size_t i : ds->split.test) {
      double c = ds->workload.examples[i].count;
      if (c >= bucket.lo && c < bucket.hi) indices.push_back(i);
    }
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Figure 8: Yeast true counts in %s (%zu queries)",
                  bucket.label, indices.size());
    PrintSection(title);
    if (indices.empty()) {
      std::printf("(no test queries in this range)\n");
      continue;
    }
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
