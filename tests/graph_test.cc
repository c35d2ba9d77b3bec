#include "graph/graph.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

TEST(GraphBuilderTest, BuildsTriangle) {
  Graph g = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.NumVertices(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.NumLabels(), 3u);
  EXPECT_EQ(g.MaxDegree(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(0, 0));
  EXPECT_DOUBLE_EQ(g.Density(), 1.0);
  EXPECT_TRUE(g.IsConnected());
}

TEST(GraphBuilderTest, RejectsSelfLoop) {
  GraphBuilder builder;
  builder.AddVertex(0);
  EXPECT_FALSE(builder.AddEdge(0, 0).ok());
}

TEST(GraphBuilderTest, RejectsOutOfRangeEdge) {
  GraphBuilder builder;
  builder.AddVertex(0);
  builder.AddVertex(1);
  EXPECT_FALSE(builder.AddEdge(0, 5).ok());
}

TEST(GraphBuilderTest, RejectsDuplicateEdge) {
  GraphBuilder builder;
  builder.AddVertex(0);
  builder.AddVertex(0);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(1, 0).ok());
  auto built = builder.Build();
  EXPECT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsInvalidArgument());
}

TEST(GraphTest, NeighborsAreSorted) {
  Graph g = MakeGraph({0, 0, 0, 0}, {{3, 0}, {1, 0}, {2, 0}});
  auto nbrs = g.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_EQ(nbrs[2], 3u);
}

TEST(GraphTest, VerticesWithLabel) {
  Graph g = MakeGraph({2, 0, 2, 1}, {{0, 1}, {1, 2}, {2, 3}});
  auto with2 = g.VerticesWithLabel(2);
  ASSERT_EQ(with2.size(), 2u);
  EXPECT_EQ(with2[0], 0u);
  EXPECT_EQ(with2[1], 2u);
  EXPECT_EQ(g.LabelFrequency(0), 1u);
  EXPECT_EQ(g.LabelFrequency(1), 1u);
  EXPECT_TRUE(g.VerticesWithLabel(9).empty());
}

TEST(GraphTest, EmptyGraph) {
  GraphBuilder builder;
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->NumVertices(), 0u);
  EXPECT_EQ(built->NumEdges(), 0u);
  EXPECT_TRUE(built->IsConnected());
}

TEST(GraphTest, DisconnectedGraphDetection) {
  Graph g = MakeGraph({0, 0, 0, 0}, {{0, 1}, {2, 3}});
  EXPECT_FALSE(g.IsConnected());
}


TEST(GraphTest, SummaryMentionsCounts) {
  Graph g = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
  std::string summary = g.Summary();
  EXPECT_NE(summary.find("|V|=3"), std::string::npos);
  EXPECT_NE(summary.find("|E|=3"), std::string::npos);
  EXPECT_NE(summary.find("|L|=3"), std::string::npos);
}

TEST(GraphTest, AverageDegree) {
  Graph g = MakeGraph({0, 0, 0, 0}, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 1.5);
  GraphBuilder b;
  Graph empty = std::move(b.Build()).value();
  EXPECT_DOUBLE_EQ(empty.AverageDegree(), 0.0);
}

TEST(GraphTest, FingerprintStableForEqualGraphs) {
  Graph a = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
  Graph b = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  // Edge insertion order does not matter: CSR adjacency is sorted.
  Graph c = MakeGraph({0, 1, 2}, {{0, 2}, {1, 2}, {0, 1}});
  EXPECT_EQ(a.Fingerprint(), c.Fingerprint());
}

TEST(GraphTest, FingerprintPinnedValues) {
  // The fingerprint is a persisted-adjacent contract: PreparedQueryCache
  // keys and any future on-disk caches depend on it, so the FNV-1a mixing
  // must stay bit-stable across refactors (the UBSan audit of ci.sh
  // stage 6 covers the unsigned arithmetic). These constants are the
  // current hash values; a change here is a cache-invalidating break.
  EXPECT_EQ(MakeGraph({}, {}).Fingerprint(), 9354609568656401157ull);
  EXPECT_EQ(MakeGraph({0}, {}).Fingerprint(), 11689819895610196388ull);
  EXPECT_EQ(MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}}).Fingerprint(),
            18088492265983465222ull);
  EXPECT_EQ(MakeGraph({3, 1, 4, 1}, {{0, 1}, {1, 2}, {2, 3}}).Fingerprint(),
            2498827455893402599ull);
}

TEST(GraphTest, FingerprintSeparatesDifferentGraphs) {
  Graph triangle = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  Graph path = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}});
  Graph relabeled = MakeGraph({0, 0, 1}, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_NE(triangle.Fingerprint(), path.Fingerprint());
  EXPECT_NE(triangle.Fingerprint(), relabeled.Fingerprint());
  // Size is mixed in before the arrays, so degenerate graphs separate too.
  Graph empty = MakeGraph({}, {});
  Graph lone = MakeGraph({0}, {});
  EXPECT_NE(empty.Fingerprint(), lone.Fingerprint());
}

// NeighborLabels(v) must be exactly the sorted labels of Neighbors(v).
void ExpectNeighborLabelsAreSortedNeighborLabels(const Graph& g) {
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    std::vector<Label> expected;
    for (VertexId w : g.Neighbors(static_cast<VertexId>(v))) {
      expected.push_back(g.GetLabel(w));
    }
    std::sort(expected.begin(), expected.end());
    auto labels = g.NeighborLabels(static_cast<VertexId>(v));
    EXPECT_EQ(std::vector<Label>(labels.begin(), labels.end()), expected)
        << "vertex " << v;
  }
}

TEST(GraphTest, NeighborLabelsOnSmallGraphs) {
  // Neighbor ids ascend while their labels do not.
  Graph star = MakeGraph({0, 9, 4, 4, 1}, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  auto labels = star.NeighborLabels(0);
  EXPECT_EQ(std::vector<Label>(labels.begin(), labels.end()),
            (std::vector<Label>{1, 4, 4, 9}));
  ExpectNeighborLabelsAreSortedNeighborLabels(star);

  Graph isolated = MakeGraph({3, 1, 2}, {});
  for (VertexId v = 0; v < 3; ++v) {
    EXPECT_TRUE(isolated.NeighborLabels(v).empty());
  }
  ExpectNeighborLabelsAreSortedNeighborLabels(MakeGraph({}, {}));
  // Isolated vertices between connected ones keep the offsets aligned.
  ExpectNeighborLabelsAreSortedNeighborLabels(
      MakeGraph({2, 0, 1, 0, 2}, {{0, 2}, {2, 4}}));
}

TEST(GraphTest, NeighborLabelsOnGeneratedAndInducedGraphs) {
  for (const char* name : {"Yeast", "Wordnet"}) {
    auto profile = FindDatasetProfile(name);
    ASSERT_TRUE(profile.ok());
    auto data = GenerateDataset(*profile, name[0] == 'Y' ? 0.2 : 0.01, 5);
    ASSERT_TRUE(data.ok()) << name;
    ExpectNeighborLabelsAreSortedNeighborLabels(*data);

    // Induced subgraphs on random vertex subsets, in shuffled order.
    Rng rng(17);
    std::vector<VertexId> all(data->NumVertices());
    for (size_t v = 0; v < all.size(); ++v) all[v] = static_cast<VertexId>(v);
    for (int trial = 0; trial < 5; ++trial) {
      rng.Shuffle(&all);
      std::vector<VertexId> subset(all.begin(),
                                   all.begin() + all.size() / (trial + 2));
      auto sub = BuildInducedSubgraph(*data, subset);
      ASSERT_TRUE(sub.ok());
      ExpectNeighborLabelsAreSortedNeighborLabels(sub->graph);
    }
  }
  auto er = GenerateErdosRenyiGraph(60, 150, 7, 3);
  ASSERT_TRUE(er.ok());
  ExpectNeighborLabelsAreSortedNeighborLabels(*er);
}

TEST(GraphBuilderTest, RejectsLabelAboveCap) {
  GraphBuilder builder;
  builder.AddVertex(0);
  builder.AddVertex(0xFFFFFFF0u);
  ASSERT_TRUE(builder.AddEdge(0, 1).ok());
  auto built = builder.Build();
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsInvalidArgument());
  // The builder is left empty, as after a successful Build.
  EXPECT_EQ(builder.NumVertices(), 0u);
  EXPECT_EQ(builder.NumEdges(), 0u);

  GraphBuilder at_cap;
  at_cap.AddVertex(kMaxLabels);
  EXPECT_TRUE(at_cap.Build().status().IsInvalidArgument());

  GraphBuilder below_cap;
  below_cap.AddVertex(kMaxLabels - 1);
  auto ok = below_cap.Build();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->NumLabels(), size_t{kMaxLabels});
}

TEST(InducedSubgraphTest, KeepsEdgesAndLabels) {
  // Path 0-1-2-3 with a chord 0-2.
  Graph g = MakeGraph({5, 6, 7, 8}, {{0, 1}, {1, 2}, {2, 3}, {0, 2}});
  auto sub = BuildInducedSubgraph(g, {0, 2, 3});
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->graph.NumVertices(), 3u);
  EXPECT_EQ(sub->graph.NumEdges(), 2u);  // 0-2 and 2-3
  EXPECT_EQ(sub->graph.GetLabel(0), 5u);
  EXPECT_EQ(sub->graph.GetLabel(1), 7u);
  EXPECT_EQ(sub->graph.GetLabel(2), 8u);
  EXPECT_TRUE(sub->graph.HasEdge(0, 1));
  EXPECT_TRUE(sub->graph.HasEdge(1, 2));
  EXPECT_FALSE(sub->graph.HasEdge(0, 2));
  EXPECT_EQ(sub->original_id, (std::vector<VertexId>{0, 2, 3}));
}

TEST(InducedSubgraphTest, RejectsDuplicates) {
  Graph g = MakeGraph({0, 0}, {{0, 1}});
  EXPECT_FALSE(BuildInducedSubgraph(g, {0, 0}).ok());
}

TEST(InducedSubgraphTest, RejectsOutOfRange) {
  Graph g = MakeGraph({0, 0}, {{0, 1}});
  EXPECT_FALSE(BuildInducedSubgraph(g, {0, 7}).ok());
}

TEST(ConnectedComponentsTest, SplitsComponents) {
  Graph g = MakeGraph({0, 0, 0, 0, 0}, {{0, 1}, {1, 2}, {3, 4}});
  auto components = ConnectedComponents(g);
  ASSERT_EQ(components.size(), 2u);
  EXPECT_EQ(components[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(components[1], (std::vector<VertexId>{3, 4}));
}

TEST(ConnectedComponentsTest, IsolatedVertices) {
  Graph g = MakeGraph({0, 0, 0}, {});
  auto components = ConnectedComponents(g);
  EXPECT_EQ(components.size(), 3u);
}

}  // namespace
}  // namespace neursc
