#include "core/optimal_transport.h"

#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace neursc {
namespace {

TEST(AssignmentTest, IdentityIsOptimal) {
  Matrix cost = Matrix::FromRows({{0, 9, 9}, {9, 0, 9}, {9, 9, 0}});
  auto assignment = SolveAssignment(cost);
  EXPECT_EQ(assignment, (std::vector<size_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(AssignmentCost(cost, assignment), 0.0);
}

TEST(AssignmentTest, RequiresGlobalReasoning) {
  // Greedy (row 0 takes col 0 at cost 1, forcing row 1 to col 1 at 10)
  // is suboptimal: the optimum is 0->1 (2) + 1->0 (1) = 3.
  Matrix cost = Matrix::FromRows({{1, 2}, {1, 10}});
  auto assignment = SolveAssignment(cost);
  EXPECT_DOUBLE_EQ(AssignmentCost(cost, assignment), 3.0);
  EXPECT_EQ(assignment[0], 1u);
  EXPECT_EQ(assignment[1], 0u);
}

TEST(AssignmentTest, RectangularMoreColumns) {
  Matrix cost = Matrix::FromRows({{5, 1, 7}, {2, 8, 2}});
  auto assignment = SolveAssignment(cost);
  EXPECT_DOUBLE_EQ(AssignmentCost(cost, assignment), 3.0);
  EXPECT_NE(assignment[0], assignment[1]);
}

// Brute-force reference over all injective assignments.
double BruteForceAssignment(const Matrix& cost) {
  std::vector<size_t> cols(cost.cols());
  std::iota(cols.begin(), cols.end(), 0);
  double best = 1e300;
  std::sort(cols.begin(), cols.end());
  do {
    double total = 0.0;
    for (size_t i = 0; i < cost.rows(); ++i) total += cost.at(i, cols[i]);
    best = std::min(best, total);
  } while (std::next_permutation(cols.begin(), cols.end()));
  return best;
}

class AssignmentPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AssignmentPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  size_t n = 2 + rng.UniformIndex(4);
  size_t m = n + rng.UniformIndex(3);
  Matrix cost = Matrix::Uniform(n, m, 0.0f, 10.0f, &rng);
  auto assignment = SolveAssignment(cost);
  EXPECT_NEAR(AssignmentCost(cost, assignment), BruteForceAssignment(cost),
              1e-4);
}

INSTANTIATE_TEST_SUITE_P(RandomCosts, AssignmentPropertyTest,
                         ::testing::Range(0, 20));

TEST(ExactOtCorrespondenceTest, RespectsCandidates) {
  Matrix query_repr = Matrix::FromRows({{0.0f, 0.0f}, {5.0f, 5.0f}});
  Matrix sub_repr =
      Matrix::FromRows({{0.1f, 0.0f}, {5.0f, 5.1f}, {2.0f, 2.0f}});
  std::vector<std::vector<VertexId>> candidates = {{0, 2}, {1, 2}};
  auto pairs =
      SelectCorrespondenceByExactOt(query_repr, sub_repr, candidates);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs.sub_rows[0], 0u);
  EXPECT_EQ(pairs.sub_rows[1], 1u);
}

TEST(ExactOtCorrespondenceTest, SolvesConflictOptimally) {
  // Both query vertices prefer v0, but total cost is lower when the
  // closer one takes it.
  Matrix query_repr = Matrix::FromRows({{0.0f}, {0.2f}});
  Matrix sub_repr = Matrix::FromRows({{0.0f}, {1.0f}});
  std::vector<std::vector<VertexId>> candidates = {{0, 1}, {0, 1}};
  auto pairs =
      SelectCorrespondenceByExactOt(query_repr, sub_repr, candidates);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs.sub_rows[0], 0u);  // u0 (exactly at v0) keeps it
  EXPECT_EQ(pairs.sub_rows[1], 1u);
}

TEST(ExactOtCorrespondenceTest, DropsCandidatelessVertices) {
  Matrix query_repr = Matrix::FromRows({{0.0f}, {1.0f}});
  Matrix sub_repr = Matrix::FromRows({{0.0f}, {1.0f}});
  std::vector<std::vector<VertexId>> candidates = {{}, {1}};
  auto pairs =
      SelectCorrespondenceByExactOt(query_repr, sub_repr, candidates);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs.query_rows[0], 1u);
}

// Sec. 5.5's greedy-vs-exact comparison on instances shaped like those
// of bench_ablations: 16 query rows, |V_sub| rows, 8 random candidates
// per query row, 32-dim representations. The greedy selection takes each
// row's nearest candidate on its own, so its cost is a lower bound on any
// injective assignment over the same rows, and it is the optimum itself
// when no two rows chose the same candidate.
class GreedyVsExactOtTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(GreedyVsExactOtTest, GreedyCostBoundsExactCost) {
  const size_t nq = 16;
  const size_t ns = std::get<0>(GetParam());
  const size_t dim = 32;
  Rng rng(std::get<1>(GetParam()));
  Matrix query_repr = Matrix::Uniform(nq, dim, -1, 1, &rng);
  Matrix sub_repr = Matrix::Uniform(ns, dim, -1, 1, &rng);
  std::vector<std::vector<VertexId>> candidates(nq);
  for (auto& row : candidates) {
    for (int k = 0; k < 8; ++k) {
      row.push_back(static_cast<VertexId>(rng.UniformIndex(ns)));
    }
  }
  auto cost = [&](const Correspondence& pairs) {
    double total = 0.0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      total += RepresentationDistance(query_repr.row(pairs.query_rows[i]),
                                      sub_repr.row(pairs.sub_rows[i]), dim,
                                      DistanceMetric::kEuclidean);
    }
    return total;
  };
  Correspondence greedy = SelectCorrespondenceByDistance(
      query_repr, sub_repr, candidates, DistanceMetric::kEuclidean);
  Correspondence exact =
      SelectCorrespondenceByExactOt(query_repr, sub_repr, candidates);
  ASSERT_EQ(greedy.size(), nq);
  ASSERT_EQ(exact.size(), greedy.size());
  const double greedy_cost = cost(greedy);
  const double exact_cost = cost(exact);
  const double tolerance = 1e-5 * exact_cost;
  EXPECT_LE(greedy_cost, exact_cost + tolerance);
  std::set<uint32_t> distinct(greedy.sub_rows.begin(), greedy.sub_rows.end());
  if (distinct.size() == greedy.size()) {
    EXPECT_NEAR(greedy_cost, exact_cost, tolerance);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BenchShapes, GreedyVsExactOtTest,
    ::testing::Combine(::testing::Values(size_t{64}, size_t{1024}),
                       ::testing::Range(0, 8)));

}  // namespace
}  // namespace neursc
