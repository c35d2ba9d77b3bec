// Component-level microbenchmarks (google-benchmark): candidate filtering,
// substructure extraction, exact enumeration, feature initialization, GIN
// and attention layer forward/backward, Hopcroft-Karp.

#include <map>

#include <benchmark/benchmark.h>

#include "core/feature_init.h"
#include "core/west.h"
#include "graph/generators.h"
#include "graph/query_generator.h"
#include "matching/bipartite_matching.h"
#include "matching/candidate_filter.h"
#include "matching/enumeration.h"
#include "matching/substructure.h"
#include "nn/modules.h"

namespace neursc {
namespace {

struct Fixture {
  Graph data;
  Graph query;

  static const Fixture& Get(size_t query_size) {
    static auto* cache = new std::map<size_t, Fixture>();
    auto it = cache->find(query_size);
    if (it != cache->end()) return it->second;
    GeneratorConfig config;
    config.num_vertices = 2000;
    config.num_edges = 8000;
    config.num_labels = 20;
    config.seed = 11;
    auto data = GeneratePowerLawGraph(config);
    QueryGeneratorConfig qc;
    qc.query_size = query_size;
    qc.seed = 3;
    QueryGenerator generator(*data, qc);
    auto query = generator.GenerateMany(1);
    Fixture fx{std::move(data).value(), std::move((*query)[0])};
    return cache->emplace(query_size, std::move(fx)).first->second;
  }
};

void BM_CandidateFiltering(benchmark::State& state) {
  const Fixture& fx = Fixture::Get(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto cs = ComputeCandidateSets(fx.query, fx.data);
    benchmark::DoNotOptimize(cs);
  }
}
BENCHMARK(BM_CandidateFiltering)->Arg(4)->Arg(8)->Arg(16);

void BM_CandidateFilteringLocalOnly(benchmark::State& state) {
  const Fixture& fx = Fixture::Get(static_cast<size_t>(state.range(0)));
  CandidateFilterOptions options;
  options.refinement_rounds = 0;
  for (auto _ : state) {
    auto cs = ComputeCandidateSets(fx.query, fx.data, options);
    benchmark::DoNotOptimize(cs);
  }
}
BENCHMARK(BM_CandidateFilteringLocalOnly)->Arg(4)->Arg(8)->Arg(16);

void BM_SubstructureExtraction(benchmark::State& state) {
  const Fixture& fx = Fixture::Get(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto ext = ExtractSubstructures(fx.query, fx.data);
    benchmark::DoNotOptimize(ext);
  }
}
BENCHMARK(BM_SubstructureExtraction)->Arg(4)->Arg(8);

void BM_ExactEnumeration(benchmark::State& state) {
  const Fixture& fx = Fixture::Get(static_cast<size_t>(state.range(0)));
  EnumerationOptions options;
  options.time_limit_seconds = 5.0;
  for (auto _ : state) {
    auto count = CountSubgraphIsomorphisms(fx.query, fx.data, options);
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_ExactEnumeration)->Arg(4)->Arg(8);

void BM_FeatureInitialization(benchmark::State& state) {
  const Fixture& fx = Fixture::Get(4);
  FeatureInitializer features(fx.data, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Matrix x = features.Compute(fx.data);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_FeatureInitialization)->Arg(1)->Arg(2);

void BM_GinLayerForwardBackward(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  GinLayer layer(32, 32, &rng);
  Matrix features = Matrix::Uniform(n, 32, 0, 1, &rng);
  EdgeIndex edges;
  for (size_t i = 0; i + 1 < n; ++i) {
    edges.Add(static_cast<uint32_t>(i), static_cast<uint32_t>(i + 1));
    edges.Add(static_cast<uint32_t>(i + 1), static_cast<uint32_t>(i));
  }
  for (auto _ : state) {
    Tape tape;
    Var h = layer.Forward(&tape, tape.Constant(features), edges);
    Var loss = tape.ReduceSum(h);
    tape.Backward(loss);
    benchmark::DoNotOptimize(tape);
    layer.ZeroGrad();
  }
}
BENCHMARK(BM_GinLayerForwardBackward)->Arg(100)->Arg(1000)->Arg(5000);

void BM_AttentionLayerForwardBackward(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  BipartiteAttentionLayer layer(32, 32, &rng);
  Matrix features = Matrix::Uniform(2 * n, 32, 0, 1, &rng);
  EdgeIndex edges;
  for (size_t i = 0; i < n; ++i) {
    edges.Add(static_cast<uint32_t>(i), static_cast<uint32_t>(n + i));
    edges.Add(static_cast<uint32_t>(n + i), static_cast<uint32_t>(i));
  }
  for (auto _ : state) {
    Tape tape;
    Var h = layer.Forward(&tape, tape.Constant(features), edges);
    Var loss = tape.ReduceSum(h);
    tape.Backward(loss);
    benchmark::DoNotOptimize(tape);
    layer.ZeroGrad();
  }
}
BENCHMARK(BM_AttentionLayerForwardBackward)->Arg(100)->Arg(1000);

void BM_HopcroftKarp(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  BipartiteGraph g(n, n);
  for (size_t l = 0; l < n; ++l) {
    for (int k = 0; k < 4; ++k) {
      g.AddEdge(l, rng.UniformIndex(n));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaximumBipartiteMatching(g));
  }
}
BENCHMARK(BM_HopcroftKarp)->Arg(64)->Arg(512)->Arg(4096);

void BM_WEstForward(benchmark::State& state) {
  const Fixture& fx = Fixture::Get(static_cast<size_t>(state.range(0)));
  auto ext = ExtractSubstructures(fx.query, fx.data);
  if (!ext.ok() || ext->early_terminate || ext->substructures.empty()) {
    state.SkipWithError("no substructures");
    return;
  }
  FeatureInitializer features(fx.data, 1);
  WEstConfig config;
  WEstModel model(features.FeatureDim(), config);
  Matrix qf = features.Compute(fx.query);
  Matrix sf = features.Compute(ext->substructures[0].graph);
  Rng rng(4);
  for (auto _ : state) {
    Tape tape;
    auto fw = model.Forward(&tape, fx.query, ext->substructures[0], qf, sf,
                            &rng);
    benchmark::DoNotOptimize(tape.Value(fw.prediction).scalar());
  }
}
BENCHMARK(BM_WEstForward)->Arg(4)->Arg(8);

}  // namespace
}  // namespace neursc

BENCHMARK_MAIN();
