// Reproduces Figure 7 (a-g): signed q-error distributions (box plots) of
// all compared methods on every dataset, per query size. NSIC runs only on
// Yeast, as in the paper (it times out elsewhere under the query budget).

#include <cstdio>
#include <memory>

#include "bench_util.h"

namespace neursc {
namespace bench {
namespace {

/// Returns false if the dataset cannot be built.
bool RunDataset(const std::string& name, const BenchEnv& env) {
  auto ds = BuildBenchDataset(name, env);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 ds.status().ToString().c_str());
    return false;
  }
  auto train = Gather(ds->workload, ds->split.train);

  // Non-learned baselines (G-CARE suite).
  CSetEstimator cset(ds->graph);
  SumRdfEstimator sumrdf(ds->graph);
  CorrelatedSamplingEstimator cs(ds->graph);
  WanderJoinEstimator wj(ds->graph);
  JsubEstimator jsub(ds->graph);

  // Learned methods.
  auto lss = std::make_unique<LssEstimator>(ds->graph,
                                            DefaultLssOptions(env));
  auto neursc_full = NeurSCAdapter::Full(ds->graph, DefaultNeurSCConfig(env));
  auto neursc_i = NeurSCAdapter::IntraOnly(ds->graph,
                                           DefaultNeurSCConfig(env));
  auto neursc_d = NeurSCAdapter::Dual(ds->graph, DefaultNeurSCConfig(env));

  std::vector<CardinalityEstimator*> methods = {&cset, &sumrdf, &cs,
                                                &wj,   &jsub};
  std::unique_ptr<NsicEstimator> nsic_i;
  std::unique_ptr<NsicEstimator> nsic_c;
  if (name == "Yeast") {
    nsic_i = std::make_unique<NsicEstimator>(
        ds->graph, DefaultNsicOptions(env, NsicEstimator::GnnKind::kGin));
    nsic_c = std::make_unique<NsicEstimator>(
        ds->graph, DefaultNsicOptions(env, NsicEstimator::GnnKind::kGcn));
    methods.push_back(nsic_i.get());
    methods.push_back(nsic_c.get());
  }
  methods.push_back(lss.get());
  methods.push_back(neursc_i.get());
  methods.push_back(neursc_d.get());
  methods.push_back(neursc_full.get());

  for (CardinalityEstimator* method : methods) {
    Status st = method->Train(train);
    if (!st.ok()) {
      std::fprintf(stderr, "train %s: %s\n", method->Name().c_str(),
                   st.ToString().c_str());
    }
  }

  for (size_t size : ds->profile.query_sizes) {
    // Test indices restricted to this query size.
    std::vector<size_t> indices;
    for (size_t i : ds->split.test) {
      if (ds->workload.sizes[i] == size) indices.push_back(i);
    }
    if (indices.empty()) continue;
    char title[128];
    std::snprintf(title, sizeof(title), "Figure 7: %s Q%zu (%zu queries)",
                  name.c_str(), size, indices.size());
    PrintSection(title);
    for (CardinalityEstimator* method : methods) {
      PrintMethodRow(EvaluateMethod(method, ds->workload, indices));
    }
  }
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace neursc

int main(int argc, char** argv) {
  neursc::ObservabilitySession observability(&argc, argv);
  neursc::bench::BenchEnv env =
      neursc::bench::BenchEnv::FromEnvironment();
  if (argc > 1) return neursc::bench::RunDataset(argv[1], env) ? 0 : 1;
  bool ok = true;
  for (const auto& profile : neursc::AllDatasetProfiles()) {
    ok = neursc::bench::RunDataset(profile.name, env) && ok;
  }
  return ok ? 0 : 1;
}
