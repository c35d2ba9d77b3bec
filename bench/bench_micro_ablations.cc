// Ablation microbenchmarks for the design choices DESIGN.md calls out:
//  - global-refinement sweep count vs pruning power and cost,
//  - candidate-guided vs unconstrained correspondence selection.
// Pruning power is reported through benchmark counters.

#include <map>

#include <benchmark/benchmark.h>

#include "core/discriminator.h"
#include "core/optimal_transport.h"
#include "graph/generators.h"
#include "graph/query_generator.h"
#include "matching/candidate_filter.h"

namespace neursc {
namespace {

struct Fixture {
  Graph data;
  std::vector<Graph> queries;

  static const Fixture& Get() {
    static auto* fx = [] {
      GeneratorConfig config;
      config.num_vertices = 2000;
      config.num_edges = 8000;
      config.num_labels = 12;
      config.seed = 21;
      auto data = GeneratePowerLawGraph(config);
      QueryGeneratorConfig qc;
      qc.query_size = 8;
      qc.seed = 5;
      QueryGenerator generator(*data, qc);
      auto queries = generator.GenerateMany(8);
      return new Fixture{std::move(data).value(),
                         std::move(queries).value()};
    }();
    return *fx;
  }
};

void BM_FilterRefinementRounds(benchmark::State& state) {
  const Fixture& fx = Fixture::Get();
  CandidateFilterOptions options;
  options.refinement_rounds = static_cast<int>(state.range(0));
  size_t total_candidates = 0;
  size_t runs = 0;
  for (auto _ : state) {
    for (const Graph& q : fx.queries) {
      auto cs = ComputeCandidateSets(q, fx.data, options);
      total_candidates += cs->TotalSize();
      ++runs;
    }
  }
  state.counters["avg_candidates"] =
      benchmark::Counter(static_cast<double>(total_candidates) /
                         static_cast<double>(std::max<size_t>(runs, 1)));
}
BENCHMARK(BM_FilterRefinementRounds)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

void BM_CorrespondenceCandidateGuided(benchmark::State& state) {
  const size_t nq = 16;
  const size_t ns = static_cast<size_t>(state.range(0));
  Rng rng(7);
  Matrix query_scores = Matrix::Uniform(nq, 1, -1, 1, &rng);
  Matrix sub_scores = Matrix::Uniform(ns, 1, -1, 1, &rng);
  std::vector<std::vector<VertexId>> candidates(nq);
  for (size_t u = 0; u < nq; ++u) {
    for (int k = 0; k < 8; ++k) {
      candidates[u].push_back(
          static_cast<VertexId>(rng.UniformIndex(ns)));
    }
  }
  for (auto _ : state) {
    auto pairs =
        SelectCorrespondenceByScores(query_scores, sub_scores, candidates);
    benchmark::DoNotOptimize(pairs);
  }
}
BENCHMARK(BM_CorrespondenceCandidateGuided)->Arg(64)->Arg(1024);

void BM_CorrespondenceByDistance(benchmark::State& state) {
  const size_t nq = 16;
  const size_t ns = static_cast<size_t>(state.range(0));
  Rng rng(8);
  Matrix query_repr = Matrix::Uniform(nq, 32, -1, 1, &rng);
  Matrix sub_repr = Matrix::Uniform(ns, 32, -1, 1, &rng);
  std::vector<std::vector<VertexId>> candidates(nq);
  for (size_t u = 0; u < nq; ++u) {
    for (int k = 0; k < 8; ++k) {
      candidates[u].push_back(
          static_cast<VertexId>(rng.UniformIndex(ns)));
    }
  }
  for (auto _ : state) {
    auto pairs = SelectCorrespondenceByDistance(
        query_repr, sub_repr, candidates, DistanceMetric::kEuclidean);
    benchmark::DoNotOptimize(pairs);
  }
}
BENCHMARK(BM_CorrespondenceByDistance)->Arg(64)->Arg(1024);

// Sec. 5.5's claim: exact optimal transport costs too much for its
// benefit. This pits the candidate-guided greedy selection against the
// exact Hungarian assignment on the same inputs; the counter reports how
// close the greedy selection's transport cost is to optimal.
void BM_CorrespondenceExactOt(benchmark::State& state) {
  const size_t nq = 16;
  const size_t ns = static_cast<size_t>(state.range(0));
  Rng rng(9);
  Matrix query_repr = Matrix::Uniform(nq, 32, -1, 1, &rng);
  Matrix sub_repr = Matrix::Uniform(ns, 32, -1, 1, &rng);
  std::vector<std::vector<VertexId>> candidates(nq);
  for (size_t u = 0; u < nq; ++u) {
    for (int k = 0; k < 8; ++k) {
      candidates[u].push_back(
          static_cast<VertexId>(rng.UniformIndex(ns)));
    }
  }
  Correspondence exact;
  for (auto _ : state) {
    exact = SelectCorrespondenceByExactOt(query_repr, sub_repr, candidates);
    benchmark::DoNotOptimize(exact);
  }
  // Cost ratio greedy/exact (close to 1 = greedy nearly optimal; it can
  // dip below 1 only because the greedy selection may reuse a candidate,
  // which the exact injective assignment cannot).
  auto transport_cost = [&](const Correspondence& pairs) {
    double total = 0.0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      total += RepresentationDistance(query_repr.row(pairs.query_rows[i]),
                                      sub_repr.row(pairs.sub_rows[i]), 32,
                                      DistanceMetric::kEuclidean);
    }
    return total;
  };
  auto greedy = SelectCorrespondenceByDistance(
      query_repr, sub_repr, candidates, DistanceMetric::kEuclidean);
  double exact_cost = transport_cost(exact);
  if (exact_cost > 0.0) {
    state.counters["greedy_vs_exact_cost"] =
        benchmark::Counter(transport_cost(greedy) / exact_cost);
  }
}
BENCHMARK(BM_CorrespondenceExactOt)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace neursc

BENCHMARK_MAIN();
