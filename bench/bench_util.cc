#include "bench_util.h"

#include <cstdio>
#include <cstdlib>

#include "common/timer.h"
#include "common/trace.h"

namespace neursc {
namespace bench {

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  long parsed = std::atol(v);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

}  // namespace

BenchEnv BenchEnv::FromEnvironment() {
  BenchEnv env;
  env.epochs = EnvSize("NEURSC_EPOCHS", env.epochs);
  env.pretrain_epochs = env.epochs / 2;
  env.max_queries_per_size =
      EnvSize("NEURSC_QUERIES", env.max_queries_per_size);
  return env;
}

Result<BenchDataset> BuildBenchDataset(
    const std::string& profile_name, const BenchEnv& env,
    const std::vector<size_t>& sizes_override,
    double edge_keep_probability) {
  auto profile = FindDatasetProfile(profile_name);
  if (!profile.ok()) return profile.status();
  auto graph = GenerateDataset(*profile, 0, /*seed=*/42);
  if (!graph.ok()) return graph.status();

  std::vector<size_t> sizes =
      sizes_override.empty() ? profile->query_sizes : sizes_override;
  size_t per_size =
      std::min(profile->default_queries_per_size, env.max_queries_per_size);
  WorkloadOptions options;
  options.ground_truth_time_limit = env.ground_truth_budget_seconds;
  options.seed = 7;
  if (edge_keep_probability > 0.0) {
    options.edge_keep_probability = edge_keep_probability;
  }
  auto workload = BuildWorkload(*graph, sizes, per_size, options);
  if (!workload.ok()) return workload.status();

  BenchDataset out{std::move(profile).value(), std::move(graph).value(),
                   std::move(workload).value(), {}};
  out.split = StratifiedSplit(out.workload, 0.8, 5);
  return out;
}

NeurSCConfig DefaultNeurSCConfig(const BenchEnv& env) {
  NeurSCConfig config;
  config.epochs = env.epochs;
  config.pretrain_epochs = env.pretrain_epochs;
  return config;
}

LssEstimator::Options DefaultLssOptions(const BenchEnv& env) {
  LssEstimator::Options options;
  options.epochs = env.epochs;
  return options;
}

NsicEstimator::Options DefaultNsicOptions(const BenchEnv& env,
                                          NsicEstimator::GnnKind kind) {
  NsicEstimator::Options options;
  options.kind = kind;
  options.epochs = env.epochs;
  return options;
}

MethodResult EvaluateMethod(CardinalityEstimator* method,
                            const Workload& workload,
                            const std::vector<size_t>& indices) {
  MethodResult result;
  result.name = method->Name();
  NEURSC_SPAN(method_span, "bench/evaluate_method");
  for (size_t i : indices) {
    const auto& example = workload.examples[i];
    Timer timer;
    auto est = method->EstimateCount(example.query);
    result.total_estimate_seconds += timer.ElapsedSeconds();
    ++result.evaluated;
    if (!est.ok()) {
      if (est.status().IsTimeout()) {
        ++result.timeouts;
      } else {
        ++result.failures;
      }
      continue;
    }
    result.signed_qerrors.push_back(SignedQError(*est, example.count));
    result.qerrors.push_back(QError(*est, example.count));
  }
  return result;
}

void PrintMethodRow(const MethodResult& result) {
  std::string row =
      FormatBoxRow(result.name, ComputeBoxStats(result.signed_qerrors));
  if (result.timeouts > 0 || result.failures > 0) {
    char suffix[64];
    std::snprintf(suffix, sizeof(suffix), "  [timeouts=%zu failures=%zu]",
                  result.timeouts, result.failures);
    row += suffix;
  }
  std::printf("%s\n", row.c_str());
}

}  // namespace bench
}  // namespace neursc
