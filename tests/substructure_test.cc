#include "matching/substructure.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/query_generator.h"
#include "matching/enumeration.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

TEST(SubstructureTest, EarlyTerminateOnEmptyCandidates) {
  Graph query = MakeGraph({9, 9}, {{0, 1}});
  Graph data = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  auto result = ExtractSubstructures(query, data);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->early_terminate);
  EXPECT_TRUE(result->substructures.empty());
}

TEST(SubstructureTest, EarlyTerminateWhenUnionTooSmall) {
  // Query needs 3 vertices but only 2 data vertices can ever qualify.
  Graph query = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  Graph data = MakeGraph({0, 0, 1, 1}, {{0, 1}, {1, 2}, {2, 3}});
  auto result = ExtractSubstructures(query, data);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->early_terminate);
}

TEST(SubstructureTest, ExtractsMatchingRegion) {
  // Data contains a labeled triangle (matching the query) plus an
  // unrelated differently-labeled region.
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
  Graph data = MakeGraph({0, 1, 2, 5, 5, 5},
                         {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {2, 3}});
  auto result = ExtractSubstructures(query, data);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->early_terminate);
  ASSERT_EQ(result->substructures.size(), 1u);
  const auto& sub = result->substructures[0];
  EXPECT_EQ(sub.graph.NumVertices(), 3u);
  EXPECT_EQ(sub.graph.NumEdges(), 3u);
  // Candidate sets localize correctly.
  ASSERT_EQ(sub.local_candidates.size(), 3u);
  for (size_t u = 0; u < 3; ++u) {
    ASSERT_EQ(sub.local_candidates[u].size(), 1u);
    EXPECT_EQ(sub.graph.GetLabel(sub.local_candidates[u][0]),
              query.GetLabel(static_cast<VertexId>(u)));
  }
}

TEST(SubstructureTest, SkipsComponentsSmallerThanQuery) {
  // Two disjoint candidate regions; one is a single vertex (too small).
  Graph query = MakeGraph({0, 0}, {{0, 1}});
  Graph data = MakeGraph({0, 0, 0, 1, 0}, {{0, 1}, {3, 4}});
  // v2 is isolated with label 0: local pruning for query vertices of
  // degree 1 requires a 0-labeled neighbor, so v2 and v4 drop out anyway;
  // the surviving component is {v0, v1}.
  auto result = ExtractSubstructures(query, data);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->substructures.size(), 1u);
  EXPECT_EQ(result->substructures[0].graph.NumVertices(), 2u);
}

TEST(SubstructureTest, SkipsComponentsWithFewerEdgesThanQuery) {
  // A triangle and a three-vertex path, all one label. The homomorphism
  // filter drops the degree test, so both are candidate regions; only the
  // triangle has the query's three edges.
  Graph query = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  Graph data = MakeGraph({0, 0, 0, 0, 0, 0},
                         {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}});
  CandidateFilterOptions options;
  options.homomorphism_safe = true;
  auto result = ExtractSubstructures(query, data, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.components_total, 2u);
  ASSERT_EQ(result->substructures.size(), 1u);
  EXPECT_EQ(result->substructures[0].original_id,
            (std::vector<VertexId>{0, 1, 2}));
}

TEST(SubstructureTest, OriginalIdsMapBack) {
  Graph query = MakeGraph({1, 1}, {{0, 1}});
  Graph data = MakeGraph({0, 1, 1, 0}, {{0, 1}, {1, 2}, {2, 3}});
  auto result = ExtractSubstructures(query, data);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->substructures.size(), 1u);
  const auto& sub = result->substructures[0];
  for (size_t i = 0; i < sub.graph.NumVertices(); ++i) {
    EXPECT_EQ(sub.graph.GetLabel(static_cast<VertexId>(i)),
              data.GetLabel(sub.original_id[i]));
  }
}

TEST(SubstructureTest, BuildFromExplicitVertices) {
  Graph query = MakeGraph({0, 0}, {{0, 1}});
  Graph data = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  auto cs = ComputeCandidateSets(query, data);
  ASSERT_TRUE(cs.ok());
  auto result = BuildSubstructuresFromVertices(query, data, {0, 1}, *cs);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->substructures.size(), 1u);
  EXPECT_EQ(result->substructures[0].graph.NumVertices(), 2u);
}


TEST(SubstructureTest, StatsReflectExtraction) {
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
  Graph data = MakeGraph({0, 1, 2, 5, 5, 5},
                         {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {2, 3}});
  auto result = ExtractSubstructures(query, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.candidate_union_size, 3u);
  EXPECT_EQ(result->stats.total_candidates, 3u);
  EXPECT_EQ(result->stats.components_total, 1u);
  EXPECT_EQ(result->stats.components_kept, 1u);
  EXPECT_EQ(result->stats.largest_substructure_vertices, 3u);
}

// Property: substructures jointly contain every embedding — counting the
// query on each substructure and summing equals the count on the full
// graph (embeddings never span substructures because substructures are
// connected components of the candidate-induced region).
class SubstructureCoverageTest : public ::testing::TestWithParam<int> {};

TEST_P(SubstructureCoverageTest, SubstructureCountsSumToTotal) {
  auto data = GenerateErdosRenyiGraph(30, 70, 3, GetParam());
  ASSERT_TRUE(data.ok());
  QueryGeneratorConfig qc;
  qc.query_size = 4;
  qc.seed = GetParam() + 11;
  QueryGenerator generator(*data, qc);
  auto query = generator.Generate();
  if (!query.ok()) GTEST_SKIP();

  auto total = CountSubgraphIsomorphisms(*query, *data);
  ASSERT_TRUE(total.ok());

  auto extraction = ExtractSubstructures(*query, *data);
  ASSERT_TRUE(extraction.ok());
  if (extraction->early_terminate) {
    EXPECT_EQ(total->count, 0u);
    return;
  }
  uint64_t sum = 0;
  for (const auto& sub : extraction->substructures) {
    auto c = CountSubgraphIsomorphisms(*query, sub.graph);
    ASSERT_TRUE(c.ok());
    sum += c->count;
  }
  EXPECT_EQ(sum, total->count);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SubstructureCoverageTest,
                         ::testing::Range(0, 12));

TEST(SubstructureTest, BuildFromVerticesRejectsMalformedInput) {
  Graph query = MakeGraph({0, 0}, {{0, 1}});
  Graph data = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  auto cs = ComputeCandidateSets(query, data);
  ASSERT_TRUE(cs.ok());

  auto bad_universe = BuildSubstructuresFromVertices(query, data, {0, 3}, *cs);
  EXPECT_EQ(bad_universe.status().code(), StatusCode::kInvalidArgument);

  CandidateSets bad_candidates = *cs;
  bad_candidates.candidates[1].push_back(7);
  auto bad_candidate =
      BuildSubstructuresFromVertices(query, data, {0, 1}, bad_candidates);
  EXPECT_EQ(bad_candidate.status().code(), StatusCode::kInvalidArgument);

  CandidateSets unsorted = *cs;
  std::reverse(unsorted.candidates[0].begin(), unsorted.candidates[0].end());
  EXPECT_EQ(
      BuildSubstructuresFromVertices(query, data, {0, 1}, unsorted)
          .status()
          .code(),
      StatusCode::kInvalidArgument);

  CandidateSets too_few = *cs;
  too_few.candidates.pop_back();
  EXPECT_EQ(
      BuildSubstructuresFromVertices(query, data, {0, 1}, too_few)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

// --- Oracle: the split computed in three passes. The subgraph induced by
// the whole universe is built first, split with ConnectedComponents, each
// large-enough component is rebuilt from its data ids, and candidate sets
// are localized through a hash map and sorted. The one-pass split must
// return the same substructures in the same order, and the same stats. ---

ExtractionResult OracleSplit(const Graph& query, const Graph& data,
                             const std::vector<VertexId>& universe,
                             const CandidateSets& candidates) {
  ExtractionResult out;
  out.stats.candidate_union_size = universe.size();
  out.stats.total_candidates = candidates.TotalSize();
  if (universe.size() < query.NumVertices()) {
    out.early_terminate = true;
    return out;
  }
  auto induced = BuildInducedSubgraph(data, universe);
  EXPECT_TRUE(induced.ok());
  auto components = ConnectedComponents(induced->graph);
  out.stats.components_total = components.size();
  for (const auto& component : components) {
    if (component.size() < query.NumVertices()) continue;
    std::vector<VertexId> data_ids;
    for (VertexId local : component) {
      data_ids.push_back(induced->original_id[local]);
    }
    auto sub = BuildInducedSubgraph(data, data_ids);
    EXPECT_TRUE(sub.ok());
    if (sub->graph.NumEdges() < query.NumEdges()) continue;
    Substructure s;
    s.graph = std::move(sub->graph);
    s.original_id = std::move(sub->original_id);
    std::unordered_map<VertexId, VertexId> to_local;
    for (size_t i = 0; i < s.original_id.size(); ++i) {
      to_local.emplace(s.original_id[i], static_cast<VertexId>(i));
    }
    s.local_candidates.resize(query.NumVertices());
    for (size_t u = 0; u < query.NumVertices(); ++u) {
      for (VertexId v : candidates.candidates[u]) {
        auto it = to_local.find(v);
        if (it != to_local.end()) s.local_candidates[u].push_back(it->second);
      }
      std::sort(s.local_candidates[u].begin(), s.local_candidates[u].end());
    }
    out.stats.largest_substructure_vertices = std::max(
        out.stats.largest_substructure_vertices, s.graph.NumVertices());
    out.substructures.push_back(std::move(s));
  }
  out.stats.components_kept = out.substructures.size();
  if (out.substructures.empty()) out.early_terminate = true;
  return out;
}

void ExpectSameExtraction(const ExtractionResult& got,
                          const ExtractionResult& want,
                          const std::string& context) {
  EXPECT_EQ(got.early_terminate, want.early_terminate) << context;
  EXPECT_EQ(got.stats.candidate_union_size, want.stats.candidate_union_size)
      << context;
  EXPECT_EQ(got.stats.total_candidates, want.stats.total_candidates)
      << context;
  EXPECT_EQ(got.stats.components_total, want.stats.components_total)
      << context;
  EXPECT_EQ(got.stats.components_kept, want.stats.components_kept)
      << context;
  EXPECT_EQ(got.stats.largest_substructure_vertices,
            want.stats.largest_substructure_vertices)
      << context;
  ASSERT_EQ(got.substructures.size(), want.substructures.size()) << context;
  for (size_t i = 0; i < want.substructures.size(); ++i) {
    const Substructure& g = got.substructures[i];
    const Substructure& w = want.substructures[i];
    EXPECT_EQ(g.original_id, w.original_id) << context << " sub " << i;
    EXPECT_TRUE(g.graph == w.graph) << context << " sub " << i;
    EXPECT_EQ(g.local_candidates, w.local_candidates)
        << context << " sub " << i;
  }
}

TEST(SubstructureTest, MatchesThreePassOracleOnGeneratedWorkloads) {
  std::vector<std::pair<std::string, CandidateFilterOptions>> variants;
  variants.emplace_back("default", CandidateFilterOptions{});
  CandidateFilterOptions local;
  local.refinement_rounds = 0;
  variants.emplace_back("refinement_rounds=0", local);
  CandidateFilterOptions homomorphism;
  homomorphism.homomorphism_safe = true;
  variants.emplace_back("homomorphism_safe", homomorphism);

  size_t extractions = 0;
  size_t substructures = 0;
  size_t components_skipped = 0;
  size_t perfect_universes = 0;
  for (const char* name : {"Yeast", "Wordnet"}) {
    auto profile = FindDatasetProfile(name);
    ASSERT_TRUE(profile.ok());
    const bool yeast = std::string(name) == "Yeast";
    auto data = GenerateDataset(*profile, yeast ? 0.3 : 0.01, 9);
    ASSERT_TRUE(data.ok()) << name;
    for (size_t size : {4u, 8u, 16u}) {
      QueryGeneratorConfig qc;
      qc.query_size = size;
      qc.edge_keep_probability = 0.6;
      qc.seed = 31 + size;
      QueryGenerator generator(*data, qc);
      auto queries = generator.GenerateMany(4);
      ASSERT_TRUE(queries.ok()) << name << " size " << size;
      for (size_t q = 0; q < queries->size(); ++q) {
        const Graph& query = (*queries)[q];
        const std::string where = std::string(name) + " size " +
                                  std::to_string(size) + " query " +
                                  std::to_string(q);
        for (const auto& [label, options] : variants) {
          auto got = ExtractSubstructures(query, *data, options);
          ASSERT_TRUE(got.ok());
          auto cs = ComputeCandidateSets(query, *data, options);
          ASSERT_TRUE(cs.ok());
          ExtractionResult want;
          if (cs->AnyEmpty()) {
            want.early_terminate = true;
          } else {
            want = OracleSplit(query, *data, cs->Union(), *cs);
          }
          ExpectSameExtraction(*got, want, where + " " + label);
          ++extractions;
          substructures += want.substructures.size();
          components_skipped +=
              want.stats.components_total - want.stats.components_kept;
        }

        // The "perfect substructure" universe: the data vertices of
        // collected embeddings, unsorted and with repeats, against the
        // default candidate sets (which reach outside it).
        EnumerationOptions eopts;
        eopts.collect_embeddings = 50;
        eopts.max_matches = 50;
        eopts.time_limit_seconds = 2.0;
        auto counted = CountSubgraphIsomorphisms(query, *data, eopts);
        ASSERT_TRUE(counted.ok());
        std::vector<VertexId> universe;
        for (const auto& embedding : counted->embeddings) {
          universe.insert(universe.end(), embedding.begin(), embedding.end());
        }
        auto cs = ComputeCandidateSets(query, *data);
        ASSERT_TRUE(cs.ok());
        auto got = BuildSubstructuresFromVertices(query, *data, universe, *cs);
        ASSERT_TRUE(got.ok());
        std::vector<VertexId> sorted = universe;
        std::sort(sorted.begin(), sorted.end());
        sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
        ExpectSameExtraction(*got, OracleSplit(query, *data, sorted, *cs),
                             where + " perfect universe");
        perfect_universes += universe.empty() ? 0 : 1;
      }
    }
  }
  EXPECT_EQ(extractions, 2u * 3u * 4u * variants.size());
  // The sweep must exercise kept, skipped and embedding-derived regions.
  EXPECT_GT(substructures, 0u);
  EXPECT_GT(components_skipped, 0u);
  EXPECT_GT(perfect_universes, 0u);
}

}  // namespace
}  // namespace neursc
