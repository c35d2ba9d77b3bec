// Reproduces Figure 9: q-error on Yeast bucketed by query characteristics
// (label entropy, degree entropy, density, diameter), NeurSC vs LSS.

#include <algorithm>
#include <cstdio>
#include <functional>

#include "bench_util.h"
#include "graph/stats.h"

namespace neursc {
namespace bench {
namespace {

struct Characteristic {
  const char* name;
  std::function<double(const Graph&)> value;
};

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

  const Characteristic characteristics[] = {
      {"label entropy", [](const Graph& q) { return LabelEntropy(q); }},
      {"degree entropy", [](const Graph& q) { return DegreeEntropy(q); }},
      {"density", [](const Graph& q) { return q.Density(); }},
      {"diameter",
       [](const Graph& q) { return static_cast<double>(Diameter(q)); }},
  };

  for (const Characteristic& c : characteristics) {
    // Split the test queries at the median of the characteristic.
    std::vector<std::pair<double, size_t>> keyed;
    for (size_t i : ds->split.test) {
      keyed.emplace_back(c.value(ds->workload.examples[i].query), i);
    }
    std::sort(keyed.begin(), keyed.end());
    size_t half = keyed.size() / 2;
    for (int part = 0; part < 2; ++part) {
      std::vector<size_t> indices;
      double lo = 1e300;
      double hi = -1e300;
      size_t begin = part == 0 ? 0 : half;
      size_t end = part == 0 ? half : keyed.size();
      for (size_t k = begin; k < end; ++k) {
        indices.push_back(keyed[k].second);
        lo = std::min(lo, keyed[k].first);
        hi = std::max(hi, keyed[k].first);
      }
      if (indices.empty()) continue;
      char title[160];
      std::snprintf(title, sizeof(title),
                    "Figure 9: Yeast %s %s half [%.2f, %.2f] (%zu queries)",
                    c.name, part == 0 ? "low" : "high", lo, hi,
                    indices.size());
      PrintSection(title);
      PrintMethodRow(EvaluateMethod(&lss, ds->workload, indices));
      PrintMethodRow(EvaluateMethod(neursc.get(), ds->workload, indices));
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
