#include "matching/bipartite_matching.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace neursc {
namespace {

TEST(BipartiteMatchingTest, PerfectMatchingOnIdentity) {
  BipartiteGraph g(3, 3);
  for (size_t i = 0; i < 3; ++i) g.AddEdge(i, i);
  EXPECT_EQ(MaximumBipartiteMatching(g), 3u);
  EXPECT_TRUE(HasLeftSaturatingMatching(g));
}

TEST(BipartiteMatchingTest, EmptyLeftIsTriviallySaturated) {
  BipartiteGraph g(0, 5);
  EXPECT_EQ(MaximumBipartiteMatching(g), 0u);
  EXPECT_TRUE(HasLeftSaturatingMatching(g));
}

TEST(BipartiteMatchingTest, IsolatedLeftVertexFails) {
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  EXPECT_FALSE(HasLeftSaturatingMatching(g));
}

TEST(BipartiteMatchingTest, MoreLeftThanRightFails) {
  BipartiteGraph g(3, 2);
  for (size_t l = 0; l < 3; ++l) {
    g.AddEdge(l, 0);
    g.AddEdge(l, 1);
  }
  EXPECT_FALSE(HasLeftSaturatingMatching(g));
  EXPECT_EQ(MaximumBipartiteMatching(g), 2u);
}

TEST(BipartiteMatchingTest, RequiresAugmentingPath) {
  // l0 -> {r0}, l1 -> {r0, r1}: greedy could block l0, Hopcroft-Karp must
  // route l1 to r1.
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  g.AddEdge(1, 0);
  g.AddEdge(1, 1);
  EXPECT_EQ(MaximumBipartiteMatching(g), 2u);
  EXPECT_TRUE(HasLeftSaturatingMatching(g));
}

TEST(BipartiteMatchingTest, ClassicHallViolation) {
  // Three left vertices all restricted to the same two right vertices.
  BipartiteGraph g(3, 3);
  for (size_t l = 0; l < 3; ++l) {
    g.AddEdge(l, 0);
    g.AddEdge(l, 1);
  }
  EXPECT_EQ(MaximumBipartiteMatching(g), 2u);
  EXPECT_FALSE(HasLeftSaturatingMatching(g));
}

// Property: Hopcroft-Karp matches a simple exhaustive matcher on random
// bipartite graphs.
size_t BruteForceMatching(const BipartiteGraph& g) {
  // Try all subsets of left vertices in decreasing size; check if a
  // perfect assignment of the subset exists via backtracking.
  std::vector<int> owner(g.NumRight(), -1);
  size_t best = 0;
  auto recurse = [&](auto&& self, size_t l, size_t matched) -> void {
    if (l == g.NumLeft()) {
      best = std::max(best, matched);
      return;
    }
    self(self, l + 1, matched);  // skip l
    for (size_t r : g.NeighborsOfLeft(l)) {
      if (owner[r] < 0) {
        owner[r] = static_cast<int>(l);
        self(self, l + 1, matched + 1);
        owner[r] = -1;
      }
    }
  };
  recurse(recurse, 0, 0);
  return best;
}

class BipartitePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BipartitePropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  size_t nl = 1 + rng.UniformIndex(5);
  size_t nr = 1 + rng.UniformIndex(5);
  BipartiteGraph g(nl, nr);
  for (size_t l = 0; l < nl; ++l) {
    for (size_t r = 0; r < nr; ++r) {
      if (rng.Bernoulli(0.4)) g.AddEdge(l, r);
    }
  }
  EXPECT_EQ(MaximumBipartiteMatching(g), BruteForceMatching(g));
}

INSTANTIATE_TEST_SUITE_P(RandomBipartite, BipartitePropertyTest,
                         ::testing::Range(0, 30));

// One graph and one scratch reused over graphs that alternately grow and
// shrink must answer as fresh objects and brute force do: Reset may leave
// no stale adjacency list or matching state behind.
TEST(BipartiteMatchingTest, ReusedGraphAndScratchMatchFreshObjects) {
  Rng rng(2024);
  BipartiteGraph reused;
  MatchingScratch scratch;
  for (int step = 0; step < 400; ++step) {
    const bool grow = step % 2 == 0;
    const size_t nl = grow ? 4 + rng.UniformIndex(4) : rng.UniformIndex(4);
    const size_t nr = grow ? 4 + rng.UniformIndex(5) : 1 + rng.UniformIndex(4);
    const double density = rng.Uniform(0.15, 0.85);
    BipartiteGraph fresh(nl, nr);
    reused.Reset(nl, nr);
    for (size_t l = 0; l < nl; ++l) {
      for (size_t r = 0; r < nr; ++r) {
        if (rng.Bernoulli(density)) {
          fresh.AddEdge(l, r);
          reused.AddEdge(l, r);
        }
      }
    }
    ASSERT_EQ(reused.NumLeft(), nl);
    ASSERT_EQ(reused.NumRight(), nr);
    for (size_t l = 0; l < nl; ++l) {
      ASSERT_EQ(reused.NeighborsOfLeft(l), fresh.NeighborsOfLeft(l))
          << "step " << step << " left " << l;
    }
    const size_t expected = BruteForceMatching(fresh);
    EXPECT_EQ(MaximumBipartiteMatching(fresh), expected) << "step " << step;
    EXPECT_EQ(MaximumBipartiteMatching(reused, scratch), expected)
        << "step " << step;
    EXPECT_EQ(HasLeftSaturatingMatching(reused, scratch),
              HasLeftSaturatingMatching(fresh))
        << "step " << step;
    EXPECT_EQ(HasLeftSaturatingMatching(fresh), expected == nl)
        << "step " << step;
  }
}

}  // namespace
}  // namespace neursc
