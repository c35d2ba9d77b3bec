// Scenario: an end-to-end command-line driver, the artifact a practitioner
// deploys. Subcommands:
//
//   neursc_cli generate <profile|custom> <graph-path>
//       Generate a dataset stand-in and write it as t/v/e text.
//   neursc_cli train <graph-path> <model-path> [epochs]
//       Build a workload on the graph, train NeurSC, save the weights.
//   neursc_cli estimate <graph-path> <model-path> <query-path>
//       Load graph + trained model, estimate the count of a query graph.
//   neursc_cli evaluate <graph-path> <model-path> [epochs]
//       Load model, rebuild the held-out workload, report q-error stats.
//
// Every subcommand also accepts --trace-out=<file> (Chrome trace_event
// JSON, see docs/observability.md) and --metrics-out=<file> (counter
// snapshot JSON); estimate/evaluate print the extraction and inference time
// of the paper's two stages from EstimateInfo, and estimate also prints the
// query's extraction statistics (candidates, components, largest
// substructure).
//
// Each subcommand takes exactly the positional arguments shown: a missing
// one, an extra one ("unexpected argument: <arg>"), an unknown --flag or an
// epochs argument that is not a positive integer is a usage error, reported
// before any file is read or written.
//
// Exit code 0 on success, 1 on errors (reported on stderr), 2 on a usage
// error.

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "core/neursc.h"
#include "eval/metrics.h"
#include "eval/reporting.h"
#include "eval/workload.h"
#include "graph/generators.h"
#include "graph/graph_io.h"

using namespace neursc;

namespace {

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

NeurSCConfig CliConfig(size_t epochs) {
  NeurSCConfig config;
  config.epochs = epochs;
  config.pretrain_epochs = epochs / 2;
  return config;
}

/// Shared workload recipe so train/evaluate see the same split.
Result<Workload> CliWorkload(const Graph& data) {
  return BuildWorkload(data, {4, 8}, 20);
}

/// Prints the median and p95 of one per-query stage time, in ms.
void PrintStageTime(const char* stage, const std::vector<EstimateInfo>& infos,
                    double EstimateInfo::*seconds) {
  std::vector<double> ms;
  ms.reserve(infos.size());
  for (const EstimateInfo& info : infos) ms.push_back(1e3 * info.*seconds);
  std::printf("%s: median %.2fms, p95 %.2fms per query\n", stage,
              Percentile(ms, 50.0), Percentile(ms, 95.0));
}

int CmdGenerate(const std::string& profile_name, const std::string& path) {
  auto profile = FindDatasetProfile(profile_name);
  if (!profile.ok()) return Fail(profile.status());
  auto graph = GenerateDataset(*profile, 0, 42);
  if (!graph.ok()) return Fail(graph.status());
  Status st = WriteGraphToFile(*graph, path);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s stand-in (%s) to %s\n", profile->name.c_str(),
              graph->Summary().c_str(), path.c_str());
  return 0;
}

int CmdTrain(const std::string& graph_path, const std::string& model_path,
             size_t epochs) {
  auto graph = ReadGraphFromFile(graph_path);
  if (!graph.ok()) return Fail(graph.status());
  auto workload = CliWorkload(*graph);
  if (!workload.ok()) return Fail(workload.status());
  auto split = StratifiedSplit(*workload, 0.8, 5);

  NeurSCEstimator estimator(*graph, CliConfig(epochs));
  auto stats = estimator.Train(Gather(*workload, split.train));
  if (!stats.ok()) return Fail(stats.status());
  Status st = estimator.SaveModel(model_path);
  if (!st.ok()) return Fail(st);
  std::printf("trained on %zu queries for %zu epochs (%.2fs); model at %s\n",
              stats->examples_used, stats->epoch_mean_loss.size(),
              stats->total_seconds, model_path.c_str());
  return 0;
}

int CmdEstimate(const std::string& graph_path,
                const std::string& model_path,
                const std::string& query_path, size_t epochs) {
  auto graph = ReadGraphFromFile(graph_path);
  if (!graph.ok()) return Fail(graph.status());
  auto query = ReadGraphFromFile(query_path);
  if (!query.ok()) return Fail(query.status());
  NeurSCEstimator estimator(*graph, CliConfig(epochs));
  Status st = estimator.LoadModel(model_path);
  if (!st.ok()) return Fail(st);
  // Scope the --metrics-out counters to estimation.
  MetricsRegistry::Global().Reset();
  auto info = estimator.Estimate(*query);
  if (!info.ok()) return Fail(info.status());
  std::printf("estimated count: %.1f\n", info->count);
  const ExtractionStats& stats = info->extraction;
  std::printf("substructures: %zu (used %zu), candidates %zu (union %zu), "
              "components %zu (kept %zu, largest %zu vertices), "
              "extraction %.1fms, inference %.1fms, total %.1fms\n",
              info->num_substructures, info->num_used,
              stats.total_candidates, stats.candidate_union_size,
              stats.components_total, stats.components_kept,
              stats.largest_substructure_vertices,
              1e3 * info->extraction_seconds,
              1e3 * info->inference_seconds, 1e3 * info->total_seconds);
  if (stats.empty_query_vertex != kInvalidVertex) {
    std::printf("no candidates for query vertex %u, so the count is 0\n",
                stats.empty_query_vertex);
  }
  return 0;
}

int CmdEvaluate(const std::string& graph_path,
                const std::string& model_path, size_t epochs) {
  auto graph = ReadGraphFromFile(graph_path);
  if (!graph.ok()) return Fail(graph.status());
  auto workload = CliWorkload(*graph);
  if (!workload.ok()) return Fail(workload.status());
  auto split = StratifiedSplit(*workload, 0.8, 5);

  NeurSCEstimator estimator(*graph, CliConfig(epochs));
  Status st = estimator.LoadModel(model_path);
  if (!st.ok()) return Fail(st);

  // Scope the --metrics-out counters to estimation.
  MetricsRegistry::Global().Reset();
  // All held-out queries go through the batch API: their substructure
  // forward passes share one NEURSC_THREADS-wide work pool, and each
  // per-query estimate matches a sequential Estimate call bit-for-bit.
  auto evaluation = EvaluateBatch(&estimator, *workload, split.test);
  if (!evaluation.ok()) return Fail(evaluation.status());
  PrintQErrorBox("NeurSC", evaluation->signed_qerrors);
  std::printf("batch: %zu queries in %.2fs (%.1fms/query)\n",
              split.test.size(), evaluation->batch_seconds,
              split.test.empty()
                  ? 0.0
                  : 1e3 * evaluation->batch_seconds /
                        static_cast<double>(split.test.size()));
  PrintStageTime("extraction", evaluation->infos,
                 &EstimateInfo::extraction_seconds);
  PrintStageTime("inference", evaluation->infos,
                 &EstimateInfo::inference_seconds);
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  neursc_cli generate <profile> <graph-path>\n"
      "  neursc_cli train <graph-path> <model-path> [epochs]\n"
      "  neursc_cli estimate <graph-path> <model-path> <query-path>\n"
      "  neursc_cli evaluate <graph-path> <model-path> [epochs]\n"
      "common flags: --trace-out=<file> --metrics-out=<file>\n"
      "profiles: Yeast Human HPRD Wordnet DBLP EU2005 Youtube\n");
  return 2;
}

/// Parses a positive decimal integer (digits only, no sign); false for
/// anything else, including 0 and values that overflow size_t.
bool ParseEpochs(const char* text, size_t* epochs) {
  const char* end = text + std::strlen(text);
  size_t value = 0;
  auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc() || stop != end || value == 0) return false;
  *epochs = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ObservabilitySession observability(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage();
    }
  }
  if (argc < 2) {
    // With no arguments, run a self-contained demo so the binary is
    // usable in the bench/example sweeps.
    std::printf("no subcommand; running self-demo\n");
    const std::string graph_path = "/tmp/neursc_cli_demo.graph";
    const std::string model_path = "/tmp/neursc_cli_demo.model";
    if (CmdGenerate("Yeast", graph_path) != 0) return 1;
    if (CmdTrain(graph_path, model_path, 6) != 0) return 1;
    return CmdEvaluate(graph_path, model_path, 6);
  }
  const std::string cmd = argv[1];
  if (cmd != "generate" && cmd != "train" && cmd != "estimate" &&
      cmd != "evaluate") {
    return Usage();
  }
  // Positional arguments after the subcommand: generate takes 2, estimate
  // 3, train and evaluate 2 or 3 (the optional epochs).
  const int num_args = argc - 2;
  const int max_args = cmd == "generate" ? 2 : 3;
  if (num_args < (cmd == "estimate" ? 3 : 2)) return Usage();
  if (num_args > max_args) {
    std::fprintf(stderr, "unexpected argument: %s\n", argv[2 + max_args]);
    return Usage();
  }
  size_t epochs = 10;
  if (num_args == 3 && cmd != "estimate" && !ParseEpochs(argv[4], &epochs)) {
    std::fprintf(stderr, "epochs must be a positive integer: %s\n", argv[4]);
    return Usage();
  }
  if (cmd == "generate") return CmdGenerate(argv[2], argv[3]);
  if (cmd == "train") return CmdTrain(argv[2], argv[3], epochs);
  if (cmd == "estimate") return CmdEstimate(argv[2], argv[3], argv[4], epochs);
  return CmdEvaluate(argv[2], argv[3], epochs);
}
