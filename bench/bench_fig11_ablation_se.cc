// Reproduces Figure 11: effectiveness of substructure extraction on Yeast.
// Compared: NeurSC, NeurSC w/o SE, NeurSC w/ PS ("perfect" substructures
// built from ground-truth embeddings), NSIC-I, NSIC-I w/ SE.

#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "matching/enumeration.h"

namespace neursc {
namespace bench {
namespace {

/// Evaluates a trained NeurSC on perfect substructures derived from the
/// ground-truth embeddings of each test query. A query whose ground truth
/// or substructures cannot be built is a counted failure; an estimate that
/// fails is also added to `*estimate_errors`.
MethodResult EvaluateWithPerfectSubstructures(
    NeurSCAdapter* model, const Graph& data, const Workload& workload,
    const std::vector<size_t>& indices, size_t* estimate_errors) {
  MethodResult result;
  result.name = "NeurSC w/ PS";
  for (size_t i : indices) {
    const auto& example = workload.examples[i];
    EnumerationOptions eopts;
    eopts.collect_embeddings = 2000;
    eopts.time_limit_seconds = 2.0;
    auto counted = CountSubgraphIsomorphisms(example.query, data, eopts);
    if (!counted.ok()) {
      ++result.failures;
      continue;
    }
    std::vector<VertexId> universe;
    for (const auto& embedding : counted->embeddings) {
      universe.insert(universe.end(), embedding.begin(), embedding.end());
    }
    auto cs = ComputeCandidateSets(example.query, data);
    if (!cs.ok()) {
      ++result.failures;
      continue;
    }
    auto perfect =
        BuildSubstructuresFromVertices(example.query, data, universe, *cs);
    if (!perfect.ok()) {
      ++result.failures;
      continue;
    }
    Timer timer;
    auto info = model->estimator().EstimateOnSubstructures(example.query,
                                                           *perfect);
    result.total_estimate_seconds += timer.ElapsedSeconds();
    ++result.evaluated;
    if (!info.ok()) {
      ++result.failures;
      ++*estimate_errors;
      continue;
    }
    result.signed_qerrors.push_back(SignedQError(info->count, example.count));
    result.qerrors.push_back(QError(info->count, example.count));
  }
  return result;
}

/// Returns false if the dataset cannot be built or a NeurSC variant's
/// estimate fails.
bool Run() {
  BenchEnv env = BenchEnv::FromEnvironment();
  auto ds = BuildBenchDataset("Yeast", env);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return false;
  }
  auto train = Gather(ds->workload, ds->split.train);

  auto neursc = NeurSCAdapter::Full(ds->graph, DefaultNeurSCConfig(env));
  auto no_se =
      NeurSCAdapter::WithoutExtraction(ds->graph, DefaultNeurSCConfig(env));
  NsicEstimator nsic(
      ds->graph, DefaultNsicOptions(env, NsicEstimator::GnnKind::kGin));
  auto nsic_se_options =
      DefaultNsicOptions(env, NsicEstimator::GnnKind::kGin);
  nsic_se_options.use_substructure_extraction = true;
  NsicEstimator nsic_se(ds->graph, nsic_se_options);

  (void)neursc->Train(train);
  (void)no_se->Train(train);
  (void)nsic.Train(train);
  (void)nsic_se.Train(train);

  size_t neursc_errors = 0;
  for (size_t size : ds->profile.query_sizes) {
    std::vector<size_t> indices;
    for (size_t i : ds->split.test) {
      if (ds->workload.sizes[i] == size) indices.push_back(i);
    }
    if (indices.empty()) continue;
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Figure 11: Yeast Q%zu (%zu queries)", size,
                  indices.size());
    PrintSection(title);
    PrintMethodRow(EvaluateMethod(&nsic, ds->workload, indices));
    PrintMethodRow(EvaluateMethod(&nsic_se, ds->workload, indices));
    for (NeurSCAdapter* variant : {no_se.get(), neursc.get()}) {
      MethodResult row = EvaluateMethod(variant, ds->workload, indices);
      neursc_errors += row.failures + row.timeouts;
      PrintMethodRow(row);
    }
    PrintMethodRow(EvaluateWithPerfectSubstructures(
        neursc.get(), ds->graph, ds->workload, indices, &neursc_errors));
  }
  if (neursc_errors > 0) {
    std::fprintf(stderr, "%zu NeurSC estimates failed\n", neursc_errors);
    return false;
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
