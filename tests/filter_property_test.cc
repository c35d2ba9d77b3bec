// Property tests of candidate-filter invariants: pruning only ever
// shrinks candidate sets (more refinement rounds never add candidates),
// and the homomorphism-safe mode is a superset of the isomorphism filter.

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/query_generator.h"
#include "matching/candidate_filter.h"

namespace neursc {
namespace {

struct Instance {
  Graph data;
  Graph query;
};

Instance MakeInstance(int seed) {
  auto data = GenerateErdosRenyiGraph(40, 100, 3, seed);
  EXPECT_TRUE(data.ok());
  QueryGeneratorConfig qc;
  qc.query_size = 4;
  qc.seed = seed + 77;
  QueryGenerator generator(*data, qc);
  auto query = generator.Generate();
  EXPECT_TRUE(query.ok());
  return {std::move(data).value(), std::move(query).value()};
}

bool IsSubsetOf(const std::vector<VertexId>& a,
                const std::vector<VertexId>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

class FilterMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(FilterMonotonicityTest, MoreRefinementNeverAddsCandidates) {
  Instance inst = MakeInstance(GetParam());
  CandidateFilterOptions weak;
  weak.refinement_rounds = 1;
  CandidateFilterOptions strong;
  strong.refinement_rounds = 4;
  auto cs_weak = ComputeCandidateSets(inst.query, inst.data, weak);
  auto cs_strong = ComputeCandidateSets(inst.query, inst.data, strong);
  ASSERT_TRUE(cs_weak.ok());
  ASSERT_TRUE(cs_strong.ok());
  for (size_t u = 0; u < inst.query.NumVertices(); ++u) {
    EXPECT_TRUE(
        IsSubsetOf(cs_strong->candidates[u], cs_weak->candidates[u]));
  }
}

TEST_P(FilterMonotonicityTest, GlobalRefinementSubsetOfLocal) {
  Instance inst = MakeInstance(GetParam());
  CandidateFilterOptions local;
  local.refinement_rounds = 0;
  auto cs_local = ComputeCandidateSets(inst.query, inst.data, local);
  auto cs_full = ComputeCandidateSets(inst.query, inst.data);
  ASSERT_TRUE(cs_local.ok());
  ASSERT_TRUE(cs_full.ok());
  for (size_t u = 0; u < inst.query.NumVertices(); ++u) {
    EXPECT_TRUE(IsSubsetOf(cs_full->candidates[u], cs_local->candidates[u]));
  }
}

TEST_P(FilterMonotonicityTest, HomomorphismModeIsSuperset) {
  Instance inst = MakeInstance(GetParam());
  CandidateFilterOptions iso;
  auto cs_iso = ComputeCandidateSets(inst.query, inst.data, iso);
  CandidateFilterOptions hom;
  hom.homomorphism_safe = true;
  auto cs_hom = ComputeCandidateSets(inst.query, inst.data, hom);
  ASSERT_TRUE(cs_iso.ok());
  ASSERT_TRUE(cs_hom.ok());
  for (size_t u = 0; u < inst.query.NumVertices(); ++u) {
    EXPECT_TRUE(IsSubsetOf(cs_iso->candidates[u], cs_hom->candidates[u]));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, FilterMonotonicityTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace neursc
