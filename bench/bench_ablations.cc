// Ablations for two design choices, on fixed synthetic fixtures:
//  - DESIGN.md's filter trade-off: global-refinement rounds vs pruning
//    power (average candidates per query) and filter time;
//  - Sec. 5.5's claim that exact optimal transport costs too much for its
//    benefit: the transport cost of WEst's candidate-guided greedy
//    selection relative to the exact Hungarian assignment, with the time
//    per selection call of each.
// Timings are for information only. Exits non-zero if generation or
// filtering fails, or if a cost ratio is not finite.

#include <cmath>
#include <cstdio>
#include <functional>

#include "common/rng.h"
#include "common/timer.h"
#include "core/discriminator.h"
#include "core/optimal_transport.h"
#include "eval/reporting.h"
#include "graph/generators.h"
#include "graph/query_generator.h"
#include "matching/candidate_filter.h"

namespace neursc {
namespace bench {
namespace {

/// Mean microseconds per call of `fn`, repeated for at least 50 ms.
double MicrosPerCall(const std::function<void()>& fn) {
  Timer timer;
  size_t calls = 0;
  do {
    fn();
    ++calls;
  } while (timer.ElapsedSeconds() < 0.05);
  return 1e6 * timer.ElapsedSeconds() / static_cast<double>(calls);
}

int RunRefinementSweep() {
  GeneratorConfig config;
  config.num_vertices = 2000;
  config.num_edges = 8000;
  config.num_labels = 12;
  config.seed = 21;
  auto data = GeneratePowerLawGraph(config);
  if (!data.ok()) {
    std::fprintf(stderr, "data graph: %s\n", data.status().ToString().c_str());
    return 1;
  }
  QueryGeneratorConfig qc;
  qc.query_size = 8;
  qc.seed = 5;
  QueryGenerator generator(*data, qc);
  auto queries = generator.GenerateMany(8);
  if (!queries.ok()) {
    std::fprintf(stderr, "queries: %s\n", queries.status().ToString().c_str());
    return 1;
  }

  PrintSection("Filter refinement rounds (8 queries of 8 vertices)");
  std::printf("%-8s %16s %18s\n", "rounds", "avg candidates",
              "filter us/query");
  for (int rounds : {0, 1, 2, 4}) {
    CandidateFilterOptions options;
    options.refinement_rounds = rounds;
    size_t total_candidates = 0;
    for (const Graph& q : *queries) {
      auto cs = ComputeCandidateSets(q, *data, options);
      if (!cs.ok()) {
        std::fprintf(stderr, "filter: %s\n", cs.status().ToString().c_str());
        return 1;
      }
      total_candidates += cs->TotalSize();
    }
    double us = MicrosPerCall([&] {
      for (const Graph& q : *queries) {
        (void)ComputeCandidateSets(q, *data, options);
      }
    });
    std::printf("%-8d %16g %18.1f\n", rounds,
                static_cast<double>(total_candidates) / queries->size(),
                us / queries->size());
  }
  return 0;
}

int RunGreedyVsExact() {
  PrintSection("Sec. 5.5: greedy vs exact transport (16 query rows)");
  std::printf("%-8s %18s %12s %12s\n", "|V_sub|", "greedy/exact cost",
              "greedy us", "exact us");
  for (size_t ns : {size_t{64}, size_t{1024}}) {
    const size_t nq = 16;
    const size_t dim = 32;
    Rng rng(9);
    Matrix query_repr = Matrix::Uniform(nq, dim, -1, 1, &rng);
    Matrix sub_repr = Matrix::Uniform(ns, dim, -1, 1, &rng);
    std::vector<std::vector<VertexId>> candidates(nq);
    for (auto& row : candidates) {
      for (int k = 0; k < 8; ++k) {
        row.push_back(static_cast<VertexId>(rng.UniformIndex(ns)));
      }
    }
    auto transport_cost = [&](const Correspondence& pairs) {
      double total = 0.0;
      for (size_t i = 0; i < pairs.size(); ++i) {
        total += RepresentationDistance(query_repr.row(pairs.query_rows[i]),
                                        sub_repr.row(pairs.sub_rows[i]), dim,
                                        DistanceMetric::kEuclidean);
      }
      return total;
    };
    auto greedy = [&] {
      return SelectCorrespondenceByDistance(query_repr, sub_repr, candidates,
                                            DistanceMetric::kEuclidean);
    };
    auto exact = [&] {
      return SelectCorrespondenceByExactOt(query_repr, sub_repr, candidates);
    };
    // Close to 1 = greedy nearly optimal. It dips below 1 only because the
    // greedy selection may reuse a candidate, which the exact injective
    // assignment cannot.
    double ratio = transport_cost(greedy()) / transport_cost(exact());
    if (!std::isfinite(ratio)) {
      std::fprintf(stderr, "|V_sub| = %zu: cost ratio %g is not finite\n",
                   ns, ratio);
      return 1;
    }
    double greedy_us = MicrosPerCall([&] { (void)greedy(); });
    double exact_us = MicrosPerCall([&] { (void)exact(); });
    std::printf("%-8zu %18g %12.2f %12.2f\n", ns, ratio, greedy_us,
                exact_us);
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace neursc

int main(int argc, char** argv) {
  neursc::ObservabilitySession observability(&argc, argv);
  if (neursc::bench::RunRefinementSweep() != 0) return 1;
  return neursc::bench::RunGreedyVsExact();
}
