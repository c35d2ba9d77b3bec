// Reproduces Table 2 (data graph statistics) and Table 3 (query workload
// details) on the synthetic stand-in datasets. Paper values are printed
// alongside the generated ones so the fidelity of each stand-in is visible.

#include <cinttypes>
#include <cstdio>

#include "bench_util.h"
#include "graph/stats.h"
#include "matching/substructure.h"

namespace neursc {
namespace bench {
namespace {

/// Returns false if any dataset cannot be built.
bool Run() {
  BenchEnv env = BenchEnv::FromEnvironment();

  PrintSection("Table 2: Statistics of Data Graphs (stand-in vs paper)");
  std::vector<std::vector<std::string>> rows;
  std::vector<BenchDataset> datasets;
  bool ok = true;
  for (const auto& profile : AllDatasetProfiles()) {
    auto ds = BuildBenchDataset(profile.name, env);
    if (!ds.ok()) {
      std::fprintf(stderr, "%s: %s\n", profile.name.c_str(),
                   ds.status().ToString().c_str());
      ok = false;
      continue;
    }
    char buf[64];
    std::vector<std::string> row;
    row.push_back(profile.name);
    std::snprintf(buf, sizeof(buf), "%zu", ds->graph.NumVertices());
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%zu", ds->graph.NumEdges());
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%zu", ds->graph.NumLabels());
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", ds->graph.AverageDegree());
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%zu/%zu/%zu/%.1f",
                  profile.full_vertices, profile.full_edges,
                  profile.num_labels, profile.avg_degree);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.4f", profile.default_scale);
    row.push_back(buf);
    rows.push_back(std::move(row));
    datasets.push_back(std::move(ds).value());
  }
  PrintTable({"Dataset", "|V|", "|E|", "|L|", "d",
              "paper |V|/|E|/|L|/d", "scale"},
             rows);

  PrintSection("Table 3: Details of Query Graphs (generated workloads)");
  rows.clear();
  for (const auto& ds : datasets) {
    for (size_t size : ds.profile.query_sizes) {
      auto indices = ds.workload.IndicesOfSize(size);
      if (indices.empty()) continue;
      double min_count = 1e300;
      double max_count = 0;
      for (size_t i : indices) {
        min_count = std::min(min_count, ds.workload.examples[i].count);
        max_count = std::max(max_count, ds.workload.examples[i].count);
      }
      char buf[64];
      std::vector<std::string> row;
      row.push_back(ds.profile.name);
      std::snprintf(buf, sizeof(buf), "%zu", size);
      row.push_back(buf);
      std::snprintf(buf, sizeof(buf), "%zu", indices.size());
      row.push_back(buf);
      std::snprintf(buf, sizeof(buf), "[%.0f, %.2e]", min_count, max_count);
      row.push_back(buf);
      rows.push_back(std::move(row));
    }
  }
  PrintTable({"Dataset", "QuerySize", "#Queries", "CountsRange"}, rows);

  PrintSection("Extraction statistics (per dataset, all queries)");
  rows.clear();
  for (const auto& ds : datasets) {
    size_t queries = 0;
    size_t early = 0;
    double union_sum = 0;
    double components_sum = 0;
    double kept_sum = 0;
    for (const auto& example : ds.workload.examples) {
      auto ext = ExtractSubstructures(example.query, ds.graph);
      if (!ext.ok()) continue;
      ++queries;
      if (ext->early_terminate) ++early;
      union_sum += static_cast<double>(ext->stats.candidate_union_size);
      components_sum += static_cast<double>(ext->stats.components_total);
      kept_sum += static_cast<double>(ext->stats.components_kept);
    }
    if (queries == 0) continue;
    char buf[64];
    std::vector<std::string> row;
    row.push_back(ds.profile.name);
    std::snprintf(buf, sizeof(buf), "%.1f",
                  union_sum / static_cast<double>(queries));
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f",
                  components_sum / static_cast<double>(queries));
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f",
                  kept_sum / static_cast<double>(queries));
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f%%",
                  100.0 * static_cast<double>(early) /
                      static_cast<double>(queries));
    row.push_back(buf);
    rows.push_back(std::move(row));
  }
  PrintTable({"Dataset", "avg |CS(q)|", "avg components", "avg kept",
              "early-term"},
             rows);
  return ok;
}

}  // namespace
}  // namespace bench
}  // namespace neursc

int main(int argc, char** argv) {
  neursc::ObservabilitySession observability(&argc, argv);
  return neursc::bench::Run() ? 0 : 1;
}
