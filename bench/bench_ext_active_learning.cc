// Extension experiment (not a paper figure): active learning in the
// spirit of ALSS [117]. With a fixed labeling budget, compare NeurSC
// trained on (a) B randomly labeled queries vs (b) B/2 random + B/2
// acquired by ensemble-disagreement active learning. The paper cites the
// AL extension but compares against plain LSS; this harness quantifies
// what AL buys NeurSC on the stand-in datasets.

#include <cstdio>

#include "bench_util.h"
#include "core/active_learner.h"
#include "graph/query_generator.h"

namespace neursc {
namespace bench {
namespace {

/// Returns the process exit code: non-zero when the workload, the pool or
/// the active-learning run fails.
int Run() {
  BenchEnv env = BenchEnv::FromEnvironment();
  auto ds = BuildBenchDataset("Yeast", env, {4, 8});
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }

  // Budget B = |train|; passive uses all of it, active starts from half.
  auto train = Gather(ds->workload, ds->split.train);
  size_t budget = train.size();
  size_t seed_size = budget / 2;
  std::vector<TrainingExample> seed_set(train.begin(),
                                        train.begin() + seed_size);

  // Unlabeled pool: fresh queries (counts unknown until acquired).
  QueryGeneratorConfig qc;
  qc.query_size = 8;
  qc.seed = 123;
  QueryGenerator generator(ds->graph, qc);
  auto pool = generator.GenerateMany(40);
  if (!pool.ok()) {
    std::fprintf(stderr, "pool: %s\n", pool.status().ToString().c_str());
    return 1;
  }

  NeurSCConfig config = DefaultNeurSCConfig(env);

  // Passive baseline.
  auto passive = NeurSCAdapter::Full(ds->graph, config);
  (void)passive->Train(train);

  // Active: half the budget seeded, the other half acquired.
  ActiveLearner::Options al;
  al.rounds = 2;
  al.acquisitions_per_round = (budget - seed_size + 1) / 2;
  ActiveLearner learner(ds->graph, config, al);
  auto labeled = learner.Run(seed_set, *pool);
  if (!labeled.ok()) {
    std::fprintf(stderr, "active: %s\n",
                 labeled.status().ToString().c_str());
    return 1;
  }

  PrintSection("Extension: active learning (Yeast, equal labeling budget)");
  std::printf("budget: %zu labeled queries; active seeded with %zu + "
              "acquired %zu\n",
              budget, seed_size, labeled->size() - seed_size);

  MethodResult passive_result =
      EvaluateMethod(passive.get(), ds->workload, ds->split.test);
  passive_result.name = "NeurSC (passive)";
  PrintMethodRow(passive_result);

  MethodResult active_result;
  active_result.name = "NeurSC (active)";
  for (size_t i : ds->split.test) {
    const auto& example = ds->workload.examples[i];
    auto info = learner.model()->Estimate(example.query);
    ++active_result.evaluated;
    if (!info.ok()) {
      ++active_result.failures;
      continue;
    }
    active_result.signed_qerrors.push_back(
        SignedQError(info->count, example.count));
    active_result.qerrors.push_back(QError(info->count, example.count));
  }
  PrintMethodRow(active_result);
  std::printf("geomean q-error: passive %.2f, active %.2f\n",
              GeometricMean(passive_result.qerrors),
              GeometricMean(active_result.qerrors));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace neursc

int main(int argc, char** argv) {
  neursc::ObservabilitySession observability(&argc, argv);
  return neursc::bench::Run();
}
