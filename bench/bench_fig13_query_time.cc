// Reproduces Figure 13 (a-g): average query processing time per method and
// per dataset/query size. Learned methods are trained briefly first (query
// latency is independent of training quality).

#include <cstdio>

#include "bench_util.h"

namespace neursc {
namespace bench {
namespace {

/// Returns false if the dataset cannot be built.
bool RunDataset(const std::string& name, const BenchEnv& env) {
  BenchEnv quick = env;
  quick.epochs = 2;  // latency, not accuracy, is measured here
  quick.pretrain_epochs = 1;
  auto ds = BuildBenchDataset(name, quick);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(),
                 ds.status().ToString().c_str());
    return false;
  }
  auto train = Gather(ds->workload, ds->split.train);

  CSetEstimator cset(ds->graph);
  SumRdfEstimator sumrdf(ds->graph);
  CorrelatedSamplingEstimator cs(ds->graph);
  WanderJoinEstimator wj(ds->graph);
  JsubEstimator jsub(ds->graph);
  LssEstimator lss(ds->graph, DefaultLssOptions(quick));
  auto neursc = NeurSCAdapter::Full(ds->graph, DefaultNeurSCConfig(quick));
  (void)lss.Train(train);
  (void)neursc->Train(train);

  std::vector<CardinalityEstimator*> methods = {
      &cset, &sumrdf, &cs, &wj, &jsub, &lss, neursc.get()};

  for (size_t size : ds->profile.query_sizes) {
    std::vector<size_t> indices;
    for (size_t i : ds->split.test) {
      if (ds->workload.sizes[i] == size) indices.push_back(i);
    }
    if (indices.empty()) continue;
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Figure 13: %s Q%zu avg query time (%zu queries)",
                  name.c_str(), size, indices.size());
    PrintSection(title);
    std::vector<std::vector<std::string>> rows;
    for (CardinalityEstimator* method : methods) {
      MethodResult r = EvaluateMethod(method, ds->workload, indices);
      char ms[32];
      std::snprintf(ms, sizeof(ms), "%.3f", r.MeanQueryMillis());
      char to[32];
      std::snprintf(to, sizeof(to), "%zu", r.timeouts);
      rows.push_back({r.name, ms, to});
    }
    PrintTable({"Method", "avg ms/query", "timeouts"}, rows);
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
