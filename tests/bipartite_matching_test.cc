#include "matching/bipartite_matching.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hopcroft_karp.h"

namespace neursc {
namespace {

using Edges = std::vector<std::pair<size_t, size_t>>;

/// The matcher's answer on a graph loaded into `matcher`.
bool Saturates(SemiPerfectMatcher& matcher, size_t num_left,
               size_t num_right, const Edges& edges) {
  matcher.Reset(num_left, num_right);
  for (const auto& [l, r] : edges) {
    matcher.Row(l)[r / 64] |= uint64_t{1} << (r % 64);
  }
  return matcher.HasLeftSaturatingMatching();
}

bool Saturates(size_t num_left, size_t num_right, const Edges& edges) {
  SemiPerfectMatcher matcher;
  return Saturates(matcher, num_left, num_right, edges);
}

BipartiteGraph ListGraph(size_t num_left, size_t num_right,
                         const Edges& edges) {
  BipartiteGraph g(num_left, num_right);
  for (const auto& [l, r] : edges) g.AddEdge(l, r);
  return g;
}

/// Size of a maximum matching by exhaustive search: each left vertex in
/// turn is skipped or given each free neighbour. Only for small graphs.
size_t BruteForceMatching(const BipartiteGraph& g) {
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

/// A random graph on num_left x num_right whose edges fall on `spread`
/// right vertices scattered over [0, num_right): few of them make Hall
/// violations likely, and scattering them reaches every word of a row.
Edges RandomEdges(Rng& rng, size_t num_left, size_t num_right,
                  size_t spread, double density) {
  std::vector<size_t> rights(num_right);
  for (size_t r = 0; r < num_right; ++r) rights[r] = r;
  rng.Shuffle(&rights);
  rights.resize(std::min(spread, num_right));
  Edges edges;
  for (size_t l = 0; l < num_left; ++l) {
    for (size_t r : rights) {
      if (rng.Bernoulli(density)) edges.emplace_back(l, r);
    }
  }
  return edges;
}

TEST(SemiPerfectMatcherTest, PerfectMatchingOnIdentity) {
  EXPECT_TRUE(Saturates(3, 3, {{0, 0}, {1, 1}, {2, 2}}));
}

TEST(SemiPerfectMatcherTest, EmptyLeftIsTriviallySaturated) {
  EXPECT_TRUE(Saturates(0, 5, {}));
  EXPECT_TRUE(Saturates(0, 0, {}));
}

TEST(SemiPerfectMatcherTest, EmptyRowFails) {
  EXPECT_FALSE(Saturates(2, 2, {{0, 0}}));
  // The empty row sits between full multi-word rows.
  Edges edges;
  for (size_t r = 0; r < 150; ++r) {
    edges.emplace_back(0, r);
    edges.emplace_back(2, r);
  }
  EXPECT_FALSE(Saturates(3, 150, edges));
  edges.emplace_back(1, 149);
  EXPECT_TRUE(Saturates(3, 150, edges));
}

TEST(SemiPerfectMatcherTest, MoreLeftThanRightFails) {
  Edges edges;
  for (size_t l = 0; l < 3; ++l) {
    edges.emplace_back(l, 0);
    edges.emplace_back(l, 1);
  }
  EXPECT_FALSE(Saturates(3, 2, edges));
  EXPECT_FALSE(Saturates(1, 0, {}));
}

TEST(SemiPerfectMatcherTest, RequiresAugmentingPath) {
  // l0 -> {r0}, l1 -> {r0, r1} in the order l1 first: l1 takes r0, and l0
  // must push it to r1.
  EXPECT_TRUE(Saturates(2, 2, {{0, 1}, {1, 0}, {1, 1}}));
  EXPECT_TRUE(Saturates(2, 2, {{1, 0}, {0, 0}, {0, 1}}));
  // The same across words: the path runs r0 -> r100 -> r199.
  EXPECT_TRUE(Saturates(3, 200, {{0, 0}, {0, 100}, {1, 100}, {1, 199},
                                 {2, 0}}));
}

TEST(SemiPerfectMatcherTest, ClassicHallViolation) {
  // Three left vertices all restricted to the same two right vertices,
  // here at the ends of a three-word row.
  Edges edges;
  for (size_t l = 0; l < 3; ++l) {
    edges.emplace_back(l, 0);
    edges.emplace_back(l, 190);
  }
  EXPECT_FALSE(Saturates(3, 191, edges));
  edges.emplace_back(2, 64);
  EXPECT_TRUE(Saturates(3, 191, edges));
}

// Both oracles agree with exhaustive search on small graphs, and the
// matcher with them.
class SmallBipartiteTest : public ::testing::TestWithParam<int> {};

TEST_P(SmallBipartiteTest, MatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const size_t nl = 1 + rng.UniformIndex(6);
    const size_t nr = 1 + rng.UniformIndex(7);
    const Edges edges =
        RandomEdges(rng, nl, nr, nr, rng.Uniform(0.15, 0.7));
    const BipartiteGraph g = ListGraph(nl, nr, edges);
    const size_t expected = BruteForceMatching(g);
    EXPECT_EQ(MaximumBipartiteMatching(g), expected) << "trial " << trial;
    EXPECT_EQ(HasLeftSaturatingMatching(g), expected == nl)
        << "trial " << trial;
    EXPECT_EQ(Saturates(nl, nr, edges), expected == nl) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomBipartite, SmallBipartiteTest,
                         ::testing::Range(0, 30));

// Up to 12 left and 200 right vertices, so rows span up to four words.
TEST(SemiPerfectMatcherTest, MatchesHopcroftKarpOnMultiWordRows) {
  Rng rng(77);
  size_t saturated = 0;
  size_t rejected = 0;
  size_t multi_word = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t nl = 1 + rng.UniformIndex(12);
    const size_t nr = 1 + rng.UniformIndex(200);
    const size_t spread = 1 + rng.UniformIndex(std::min(nr, 2 * nl));
    const Edges edges =
        RandomEdges(rng, nl, nr, spread, rng.Uniform(0.1, 0.6));
    const bool expected = HasLeftSaturatingMatching(ListGraph(nl, nr, edges));
    ASSERT_EQ(Saturates(nl, nr, edges), expected)
        << "trial " << trial << ": " << nl << " x " << nr;
    (expected ? saturated : rejected) += 1;
    if (nr > 64) ++multi_word;
  }
  // Both answers and multi-word rows are well represented.
  EXPECT_GT(saturated, 300u);
  EXPECT_GT(rejected, 300u);
  EXPECT_GT(multi_word, 1500u);
}

// One matcher reused over graphs that alternately grow and shrink answers
// as a fresh matcher and Hopcroft-Karp do: Reset leaves no stale row,
// match or visited bit behind.
TEST(SemiPerfectMatcherTest, ReusedMatcherMatchesFreshOne) {
  Rng rng(2024);
  SemiPerfectMatcher reused;
  for (int step = 0; step < 600; ++step) {
    const bool grow = step % 2 == 0;
    const size_t nl = grow ? 6 + rng.UniformIndex(7) : 1 + rng.UniformIndex(4);
    const size_t nr =
        grow ? 100 + rng.UniformIndex(101) : 1 + rng.UniformIndex(70);
    const size_t spread = 1 + rng.UniformIndex(std::min(nr, 2 * nl));
    const Edges edges =
        RandomEdges(rng, nl, nr, spread, rng.Uniform(0.15, 0.85));
    const bool expected = HasLeftSaturatingMatching(ListGraph(nl, nr, edges));
    EXPECT_EQ(Saturates(reused, nl, nr, edges), expected) << "step " << step;
    EXPECT_EQ(Saturates(nl, nr, edges), expected) << "step " << step;
    // Asking twice gives the same answer: the test leaves its rows alone.
    EXPECT_EQ(reused.HasLeftSaturatingMatching(), expected)
        << "step " << step;
  }
}

}  // namespace
}  // namespace neursc
