#include "matching/candidate_filter.h"

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/metrics_registry.h"
#include "graph/generators.h"
#include "graph/query_generator.h"
#include "hopcroft_karp.h"
#include "matching/enumeration.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

TEST(CandidateFilterTest, LabelMismatchEmpties) {
  Graph query = MakeGraph({5}, {});
  Graph data = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}});
  auto cs = ComputeCandidateSets(query, data);
  ASSERT_TRUE(cs.ok());
  EXPECT_TRUE(cs->AnyEmpty());
}

TEST(CandidateFilterTest, LocalPruningUsesNeighborLabels) {
  // Query: center labeled 0 with neighbors labeled 1 and 2.
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {0, 2}});
  // Data: v0 (label 0) has neighbors labeled 1,2 -> candidate of u0.
  //       v3 (label 0) has neighbors labeled 1,1 -> not a candidate.
  Graph data = MakeGraph({0, 1, 2, 0, 1, 1},
                         {{0, 1}, {0, 2}, {3, 4}, {3, 5}});
  CandidateFilterOptions options;
  options.refinement_rounds = 0;
  auto cs = ComputeCandidateSets(query, data, options);
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(cs->candidates[0], (std::vector<VertexId>{0}));
}

TEST(CandidateFilterTest, DegreeFilterApplies) {
  Graph query = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}});  // center degree 2
  Graph data = MakeGraph({0, 1, 0, 1, 1}, {{0, 1}, {2, 3}, {2, 4}});
  CandidateFilterOptions options;
  options.refinement_rounds = 0;
  auto cs = ComputeCandidateSets(query, data, options);
  ASSERT_TRUE(cs.ok());
  // v0 has degree 1 < 2, only v2 qualifies for u0.
  EXPECT_EQ(cs->candidates[0], (std::vector<VertexId>{2}));
}

TEST(CandidateFilterTest, GlobalRefinementPrunes) {
  // Query: path u0(A)-u1(B)-u2(C).
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}});
  // Data: v0(A)-v1(B)-v2(C) is a real path.
  //       v3(B) has neighbors v4(A) and v5(C)... but v4 lacks a B neighbor
  //       with a C neighbor? Build: v4(A)-v3(B), v3(B)-v5(C): also real.
  //       v6(B) with only an A neighbor v7 -> locally plausible for u1
  //       only if it has both A and C neighbors; it doesn't, so local
  //       pruning already removes it. For a pure *global* case: v8(B) with
  //       neighbors v9(A) and v10(C), where v10 has no B neighbor other
  //       than v8 — still fine. Instead make v9's profile wrong at
  //       distance 2: global refinement with radius 1 profiles catches
  //       cases where the *neighbor* fails membership. v11(A) adjacent to
  //       v12(B), v12 adjacent to nothing labeled C: local pruning drops
  //       v12 from CS(u1), and refinement must then drop v11 from CS(u0).
  Graph data = MakeGraph({0, 1, 2, 1, 0, 2, 0, 1},
                         {{0, 1},
                          {1, 2},
                          {4, 3},
                          {3, 5},
                          {6, 7}});
  auto cs = ComputeCandidateSets(query, data);
  ASSERT_TRUE(cs.ok());
  // u0 (label A): v0 and v4 survive; v6's only neighbor v7 (B) was locally
  // pruned from CS(u1) (no C neighbor), so refinement removes v6.
  EXPECT_EQ(cs->candidates[0], (std::vector<VertexId>{0, 4}));
  EXPECT_EQ(cs->candidates[1], (std::vector<VertexId>{1, 3}));
  EXPECT_EQ(cs->candidates[2], (std::vector<VertexId>{2, 5}));
}

TEST(CandidateFilterTest, UnionHelpers) {
  Graph query = MakeGraph({0, 0}, {{0, 1}});
  Graph data = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  auto cs = ComputeCandidateSets(query, data);
  ASSERT_TRUE(cs.ok());
  EXPECT_FALSE(cs->AnyEmpty());
  EXPECT_EQ(cs->UnionSize(), cs->Union().size());
  EXPECT_GE(cs->TotalSize(), cs->UnionSize());
}

// Definition 2 (complete candidate set) as a property: for every embedding
// found by exact enumeration, every (u, v) pair must be inside CS(u). Swept
// over random graphs.
class CandidateCompletenessTest : public ::testing::TestWithParam<int> {};

TEST_P(CandidateCompletenessTest, ContainsAllEmbeddingVertices) {
  const int seed = GetParam();
  auto data = GenerateErdosRenyiGraph(24, 60, 3, seed);
  ASSERT_TRUE(data.ok());
  QueryGeneratorConfig qc;
  qc.query_size = 3 + seed % 2;
  qc.seed = seed + 100;
  QueryGenerator generator(*data, qc);
  auto query = generator.Generate();
  if (!query.ok()) GTEST_SKIP();

  auto cs = ComputeCandidateSets(*query, *data);
  ASSERT_TRUE(cs.ok());

  EnumerationOptions eopts;
  eopts.collect_embeddings = 100000;
  auto counted = CountSubgraphIsomorphisms(*query, *data, eopts);
  ASSERT_TRUE(counted.ok());
  EXPECT_GE(counted->count, 1u);  // query was extracted from data

  for (const auto& embedding : counted->embeddings) {
    for (size_t u = 0; u < embedding.size(); ++u) {
      const auto& candidates = cs->candidates[u];
      EXPECT_TRUE(std::binary_search(candidates.begin(), candidates.end(),
                                     embedding[u]))
          << "vertex " << embedding[u] << " missing from CS(" << u << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, CandidateCompletenessTest,
                         ::testing::Range(1, 13));

// The filter must never *increase* enumeration results: counting with
// filtered candidates equals brute-force counting.
TEST(CandidateFilterTest, FilteredEnumerationMatchesBruteForce) {
  auto data = GenerateErdosRenyiGraph(14, 30, 2, 77);
  ASSERT_TRUE(data.ok());
  QueryGeneratorConfig qc;
  qc.query_size = 3;
  qc.seed = 5;
  QueryGenerator generator(*data, qc);
  auto query = generator.Generate();
  ASSERT_TRUE(query.ok());
  auto counted = CountSubgraphIsomorphisms(*query, *data);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->count, testing_util::BruteForceCount(*query, *data));
}

// --- Oracle: the filter computed the direct way. Every profile is
// collected and sorted per call, and refinement builds a fresh bipartite
// graph and fresh matching state for every candidate pair over one
// membership vector per query vertex. ComputeCandidateSets must return the
// same vertices in the same order. ---

std::vector<Label> OracleProfile(const Graph& g, VertexId v) {
  std::vector<Label> profile;
  for (VertexId w : g.Neighbors(v)) profile.push_back(g.GetLabel(w));
  std::sort(profile.begin(), profile.end());
  return profile;
}

CandidateSets OracleCandidateSets(const Graph& query, const Graph& data,
                                  const CandidateFilterOptions& options) {
  const size_t nq = query.NumVertices();
  CandidateSets result;
  result.candidates.resize(nq);
  for (VertexId u = 0; u < nq; ++u) {
    std::vector<Label> qp = OracleProfile(query, u);
    for (VertexId v : data.VerticesWithLabel(query.GetLabel(u))) {
      if (data.Degree(v) < query.Degree(u)) continue;
      std::vector<Label> dp = OracleProfile(data, v);
      if (std::includes(dp.begin(), dp.end(), qp.begin(), qp.end())) {
        result.candidates[u].push_back(v);
      }
    }
  }

  std::vector<std::vector<bool>> is_candidate(
      nq, std::vector<bool>(data.NumVertices(), false));
  for (size_t u = 0; u < nq; ++u) {
    for (VertexId v : result.candidates[u]) is_candidate[u][v] = true;
  }
  // Refinement stops as soon as some set is empty.
  bool some_empty = result.AnyEmpty();
  for (int round = 0; round < options.refinement_rounds && !some_empty;
       ++round) {
    bool changed = false;
    for (VertexId u = 0; u < nq && !some_empty; ++u) {
      auto query_nbrs = query.Neighbors(u);
      std::vector<VertexId> kept;
      for (VertexId v : result.candidates[u]) {
        auto data_nbrs = data.Neighbors(v);
        BipartiteGraph b(query_nbrs.size(), data_nbrs.size());
        for (size_t i = 0; i < query_nbrs.size(); ++i) {
          for (size_t j = 0; j < data_nbrs.size(); ++j) {
            if (is_candidate[query_nbrs[i]][data_nbrs[j]]) b.AddEdge(i, j);
          }
        }
        if (HasLeftSaturatingMatching(b)) {
          kept.push_back(v);
        } else {
          is_candidate[u][v] = false;
          changed = true;
        }
      }
      result.candidates[u] = std::move(kept);
      some_empty = result.candidates[u].empty();
    }
    if (!changed) break;
  }
  return result;
}

TEST(CandidateFilterTest, MatchesOracleOnGeneratedWorkloads) {
  std::vector<std::pair<std::string, CandidateFilterOptions>> variants;
  variants.emplace_back("default", CandidateFilterOptions{});
  for (int rounds : {0, 1, 4}) {
    CandidateFilterOptions refine;
    refine.refinement_rounds = rounds;
    variants.emplace_back("refinement_rounds=" + std::to_string(rounds),
                          refine);
  }

  size_t compared = 0;
  size_t refined_away = 0;
  size_t emptied_by_refinement = 0;
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
      for (size_t q = 0; q < 2 * queries->size(); ++q) {
        // Each generated query, then a copy with its vertex 0 relabelled.
        const Graph& generated = (*queries)[q / 2];
        const Graph query =
            q % 2 == 0 ? generated
                       : testing_util::WithLabel(
                             generated, 0,
                             (generated.GetLabel(0) + 1) %
                                 static_cast<Label>(data->NumLabels()));
        for (const auto& [label, options] : variants) {
          auto got = ComputeCandidateSets(query, *data, options);
          ASSERT_TRUE(got.ok());
          CandidateSets want = OracleCandidateSets(query, *data, options);
          ASSERT_EQ(got->candidates.size(), want.candidates.size());
          for (size_t u = 0; u < want.candidates.size(); ++u) {
            EXPECT_EQ(got->candidates[u], want.candidates[u])
                << name << " size " << size << " query " << q << " "
                << label << " vertex " << u;
          }
          ++compared;
          if (label == "default") {
            CandidateFilterOptions local = options;
            local.refinement_rounds = 0;
            const CandidateSets unrefined =
                OracleCandidateSets(query, *data, local);
            refined_away += unrefined.TotalSize() - want.TotalSize();
            emptied_by_refinement += !unrefined.AnyEmpty() && want.AnyEmpty();
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 2u * 3u * 8u * variants.size());
  // The sweep must exercise refinement, not only local pruning, and
  // refinement that stops at an emptied set.
  EXPECT_GT(refined_away, 0u);
  EXPECT_GT(emptied_by_refinement, 0u);
}

// Two hubs whose decisive neighbours sit in the second and third words of
// their bit rows. Query: c (label 0) and d (label 3), both adjacent to b1,
// b2 and b3 (label 2). Hub 0's label-2 neighbours 74, 148 and 185 (row
// positions 71, 145 and 182) are adjacent to d's image 2 and match b1-b3;
// hub 1 has only two such neighbours, 259 and 296, so refinement drops it
// by Hall's condition, and then 259 and 296 lose their only image of c.
TEST(CandidateFilterTest, RefinementReadsEveryWordOfARow) {
  GraphBuilder builder;
  for (VertexId v = 0; v < 400; ++v) {
    builder.AddVertex(v < 2 ? 0 : v == 2 ? 3 : v % 37 == 0 ? 2 : 1);
  }
  for (VertexId v = 3; v < 400; ++v) {
    ASSERT_TRUE(builder.AddEdge(v < 200 ? 0 : 1, v).ok());
  }
  for (VertexId v : {74u, 148u, 185u, 259u, 296u}) {
    ASSERT_TRUE(builder.AddEdge(2, v).ok());
  }
  auto data = builder.Build();
  ASSERT_TRUE(data.ok());
  Graph query = MakeGraph({0, 2, 2, 2, 3},
                          {{0, 1}, {0, 2}, {0, 3}, {4, 1}, {4, 2}, {4, 3}});

  CandidateFilterOptions local_only;
  local_only.refinement_rounds = 0;
  auto local = ComputeCandidateSets(query, *data, local_only);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->candidates[0], (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(local->candidates[1],
            (std::vector<VertexId>{74, 148, 185, 259, 296}));

  auto refined = ComputeCandidateSets(query, *data);
  ASSERT_TRUE(refined.ok());
  EXPECT_EQ(refined->candidates[0], (std::vector<VertexId>{0}));
  for (size_t b = 1; b <= 3; ++b) {
    EXPECT_EQ(refined->candidates[b], (std::vector<VertexId>{74, 148, 185}))
        << "vertex " << b;
  }
  EXPECT_EQ(refined->candidates[4], (std::vector<VertexId>{2}));
  EXPECT_EQ(refined->candidates,
            OracleCandidateSets(query, *data, {}).candidates);
}

// filter.signature_rejects counts, per query vertex u, the data vertices
// with u's label and at least u's degree whose label signature misses a
// bit of u's: the vertices the pre-test spares the profile merge.
TEST(CandidateFilterTest, SignatureRejectsFollowTheirDefinition) {
  Counter* rejects =
      MetricsRegistry::Global().GetCounter("filter.signature_rejects");
  int64_t total = 0;
  for (const char* name : {"Yeast", "Wordnet"}) {
    auto profile = FindDatasetProfile(name);
    ASSERT_TRUE(profile.ok());
    const bool yeast = std::string(name) == "Yeast";
    auto data = GenerateDataset(*profile, yeast ? 0.3 : 0.01, 9);
    ASSERT_TRUE(data.ok()) << name;
    QueryGeneratorConfig qc;
    qc.query_size = 8;
    qc.edge_keep_probability = 0.6;
    QueryGenerator generator(*data, qc);
    auto queries = generator.GenerateMany(6);
    ASSERT_TRUE(queries.ok()) << name;
    for (const Graph& query : *queries) {
      int64_t want = 0;
      for (VertexId u = 0; u < query.NumVertices(); ++u) {
        for (VertexId v : data->VerticesWithLabel(query.GetLabel(u))) {
          want += data->Degree(v) >= query.Degree(u) &&
                  (query.LabelSignature(u) & ~data->LabelSignature(v)) != 0;
        }
      }
      const int64_t before = rejects->Value();
      ASSERT_TRUE(ComputeCandidateSets(query, *data).ok());
      EXPECT_EQ(rejects->Value() - before, want) << name;
      total += want;
    }
  }
  EXPECT_GT(total, 0);
}

}  // namespace
}  // namespace neursc
