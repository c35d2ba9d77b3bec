#include "graph/stats.h"

#include <cmath>

#include <gtest/gtest.h>

#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

TEST(StatsTest, LabelEntropyUniform) {
  Graph g = MakeGraph({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_NEAR(LabelEntropy(g), std::log(4.0), 1e-9);
}

TEST(StatsTest, LabelEntropySingleLabelIsZero) {
  Graph g = MakeGraph({5, 5, 5}, {{0, 1}, {1, 2}});
  EXPECT_NEAR(LabelEntropy(g), 0.0, 1e-12);
}

TEST(StatsTest, DegreeEntropyRegularGraphIsZero) {
  // Cycle: all degrees equal.
  Graph g = MakeGraph({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_NEAR(DegreeEntropy(g), 0.0, 1e-12);
}

TEST(StatsTest, DegreeEntropyStar) {
  // Star: center degree 3 (1/4), leaves degree 1 (3/4).
  Graph g = MakeGraph({0, 0, 0, 0}, {{0, 1}, {0, 2}, {0, 3}});
  double expected = -(0.25 * std::log(0.25) + 0.75 * std::log(0.75));
  EXPECT_NEAR(DegreeEntropy(g), expected, 1e-9);
}

TEST(StatsTest, DiameterPath) {
  Graph g = MakeGraph({0, 0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_EQ(Diameter(g), 4u);
}

TEST(StatsTest, DiameterTriangle) {
  Graph g = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(Diameter(g), 1u);
}

TEST(StatsTest, EccentricityOfPathEnd) {
  Graph g = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  EXPECT_EQ(Eccentricity(g, 0), 2u);
  EXPECT_EQ(Eccentricity(g, 1), 1u);
}

TEST(StatsTest, DiameterIgnoresUnreachable) {
  Graph g = MakeGraph({0, 0, 0, 0}, {{0, 1}, {2, 3}});
  EXPECT_EQ(Diameter(g), 1u);
}

}  // namespace
}  // namespace neursc
