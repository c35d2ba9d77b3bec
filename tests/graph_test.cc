#include "graph/graph.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/query_generator.h"
#include "matching/substructure.h"
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

Result<Graph> BuildFromEdges(
    const std::vector<Label>& labels,
    const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder builder;
  for (Label l : labels) builder.AddVertex(l);
  for (const auto& [u, v] : edges) {
    NEURSC_RETURN_IF_ERROR(builder.AddEdge(u, v));
  }
  return builder.Build();
}

TEST(GraphBuilderTest, EdgeOrderDoesNotMatter) {
  // The canonical order (the one WriteGraphBinary and WriteGraphToStream
  // write) scatters into sorted lists that Build leaves as they are; a
  // shuffled order and swapped endpoints leave lists Build must sort.
  auto profile = FindDatasetProfile("Yeast");
  ASSERT_TRUE(profile.ok());
  auto data = GenerateDataset(*profile, 0.2, 5);
  ASSERT_TRUE(data.ok());
  std::vector<Label> labels;
  std::vector<std::pair<VertexId, VertexId>> canonical;
  for (VertexId v = 0; v < data->NumVertices(); ++v) {
    labels.push_back(data->GetLabel(v));
    for (VertexId w : data->Neighbors(v)) {
      if (v < w) canonical.emplace_back(v, w);
    }
  }
  auto shuffled = canonical;
  Rng rng(31);
  rng.Shuffle(&shuffled);
  auto swapped = canonical;
  for (auto& [u, v] : swapped) std::swap(u, v);
  for (const auto& [name, edges] :
       {std::pair{"canonical", canonical}, std::pair{"shuffled", shuffled},
        std::pair{"swapped", swapped}}) {
    auto built = BuildFromEdges(labels, edges);
    ASSERT_TRUE(built.ok()) << name << ": " << built.status().ToString();
    // Compares operator==, Fingerprint() and every derived array.
    testing_util::ExpectSameGraph(*built, *data, name);
  }
}

TEST(GraphBuilderTest, DuplicateEdgeRejectedInSortedAndUnsortedLists) {
  // Vertex 0's list comes out sorted from the first order and unsorted
  // from the second; both hold the duplicate edge 0-2.
  for (const std::vector<std::pair<VertexId, VertexId>>& edges :
       {std::vector<std::pair<VertexId, VertexId>>{{0, 1}, {0, 2}, {0, 2}},
        {{0, 2}, {1, 0}, {2, 0}}}) {
    auto built = BuildFromEdges({0, 1, 2}, edges);
    ASSERT_FALSE(built.ok());
    EXPECT_TRUE(built.status().IsInvalidArgument());
    EXPECT_EQ(built.status().message(), "duplicate edge at vertex 0");
  }
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
  // The fingerprint is a persisted contract: perfbench writes it into
  // its input manifests and checks it on every run, so the FNV-1a mixing
  // must stay bit-stable across refactors (the UBSan audit of ci.sh
  // stage 6 covers the unsigned arithmetic). These constants are the
  // current hash values; a change here invalidates saved inputs.
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

/// Checks LabelSignature(v) against its definition: bit (l mod 64) for
/// each neighbour label l. Returns how many vertices have a neighbour
/// label of 64 or more, whose bit wraps around.
size_t ExpectSignaturesMatchDefinition(const Graph& g,
                                       const std::string& context) {
  size_t wrapped = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    uint64_t want = 0;
    bool wraps = false;
    for (VertexId w : g.Neighbors(v)) {
      want |= uint64_t{1} << (g.GetLabel(w) % 64);
      wraps |= g.GetLabel(w) >= 64;
    }
    EXPECT_EQ(g.LabelSignature(v), want) << context << " vertex " << v;
    wrapped += wraps;
  }
  return wrapped;
}

TEST(GraphTest, LabelSignatureOnSmallGraphs) {
  // Labels 1, 65 and 129 share bit 1; 63 and 127 share bit 63; 64 and
  // 1 << 19 wrap to bit 0. Vertex 8 is isolated.
  Graph g = MakeGraph({0, 1, 65, 129, 63, 127, 64, Label{1} << 19, 5},
                      {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 5}, {1, 6},
                       {2, 7}});
  EXPECT_EQ(g.LabelSignature(0), (uint64_t{1} << 1) | (uint64_t{1} << 63));
  EXPECT_EQ(g.LabelSignature(1), uint64_t{1} | (uint64_t{1} << 63));
  EXPECT_EQ(g.LabelSignature(2), uint64_t{1});
  EXPECT_EQ(g.LabelSignature(3), uint64_t{1});
  EXPECT_EQ(g.LabelSignature(7), uint64_t{1} << 1);
  EXPECT_EQ(g.LabelSignature(8), uint64_t{0});
  EXPECT_EQ(ExpectSignaturesMatchDefinition(g, "small"), 4u);

  Graph isolated = MakeGraph({3, 70, 2}, {});
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(isolated.LabelSignature(v), 0u);
  ExpectSignaturesMatchDefinition(MakeGraph({}, {}), "empty");
}

// The signature is derived where every graph is built, so it holds for
// the builder, the substructure split (which builds its CSR directly) and
// the binary reader alike.
TEST(GraphTest, LabelSignatureOnBuiltSplitAndReadGraphs) {
  auto profile = FindDatasetProfile("Yeast");  // 71 labels: bits wrap
  ASSERT_TRUE(profile.ok());
  auto data = GenerateDataset(*profile, 0.2, 5);
  ASSERT_TRUE(data.ok());
  EXPECT_GT(ExpectSignaturesMatchDefinition(*data, "Yeast"), 0u);

  QueryGeneratorConfig qc;
  qc.query_size = 4;
  qc.seed = 11;
  QueryGenerator generator(*data, qc);
  auto queries = generator.GenerateMany(6);
  ASSERT_TRUE(queries.ok());
  size_t substructures = 0;
  for (const Graph& query : *queries) {
    ExpectSignaturesMatchDefinition(query, "query");
    auto extraction = ExtractSubstructures(query, *data);
    ASSERT_TRUE(extraction.ok());
    for (const Substructure& sub : extraction->substructures) {
      ExpectSignaturesMatchDefinition(sub.graph, "substructure");
      for (VertexId v = 0; v < sub.graph.NumVertices(); ++v) {
        // Each neighbour in the substructure is one in the data graph.
        EXPECT_EQ(sub.graph.LabelSignature(v) &
                      ~data->LabelSignature(sub.original_id[v]),
                  0u);
      }
      ++substructures;
    }
  }
  EXPECT_GT(substructures, 0u);

  // Labels past 64 and an isolated vertex through a binary round trip.
  Graph wide = MakeGraph({70, 6, 134, 6, 9}, {{0, 1}, {0, 2}, {1, 3}});
  const std::string path = ::testing::TempDir() + "/neursc_signature.nscg";
  ASSERT_TRUE(WriteGraphBinary(wide, path).ok());
  auto read = ReadGraphBinary(path);
  std::remove(path.c_str());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ExpectSignaturesMatchDefinition(*read, "binary"), 3u);
  for (VertexId v = 0; v < wide.NumVertices(); ++v) {
    EXPECT_EQ(read->LabelSignature(v), wide.LabelSignature(v));
  }
  EXPECT_EQ(read->LabelSignature(0), uint64_t{1} << 6);
  EXPECT_EQ(read->LabelSignature(4), 0u);
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

// The CSR arrays of the subgraph of `g` induced by the ascending
// `sorted`, found by binary search in `sorted`, handed to the factory.
Graph InducedThroughFactory(const Graph& g,
                            const std::vector<VertexId>& sorted) {
  std::vector<Label> labels;
  std::vector<size_t> offsets = {0};
  std::vector<VertexId> adjacency;
  for (VertexId v : sorted) {
    labels.push_back(g.GetLabel(v));
    for (VertexId w : g.Neighbors(v)) {
      auto it = std::lower_bound(sorted.begin(), sorted.end(), w);
      if (it != sorted.end() && *it == w) {
        adjacency.push_back(static_cast<VertexId>(it - sorted.begin()));
      }
    }
    offsets.push_back(adjacency.size());
  }
  return Graph::FromValidatedCsr(std::move(labels), std::move(offsets),
                                 std::move(adjacency));
}

TEST(GraphFactoryTest, MatchesBuildInducedSubgraphOnEveryAccessor) {
  // Neighbour ids ascend while their labels do not, and vertex 5 is
  // isolated, so the neighbour labels need their own sort and the
  // offsets must stay aligned across an empty list.
  Graph small = MakeGraph({3, 9, 1, 4, 4, 0},
                          {{0, 1}, {0, 2}, {0, 3}, {1, 4}, {2, 3}});
  for (const std::vector<VertexId>& subset :
       {std::vector<VertexId>{}, {5}, {0, 1, 2, 3}, {0, 1, 2, 3, 4, 5},
        {1, 2, 4}}) {
    auto want = BuildInducedSubgraph(small, subset);
    ASSERT_TRUE(want.ok());
    testing_util::ExpectSameGraph(InducedThroughFactory(small, subset),
                                  want->graph,
                                  "small, " + std::to_string(subset.size()) +
                                      " vertices");
  }

  size_t compared = 0;
  for (const char* name : {"Yeast", "Wordnet"}) {
    auto profile = FindDatasetProfile(name);
    ASSERT_TRUE(profile.ok());
    auto data = GenerateDataset(*profile, name[0] == 'Y' ? 0.2 : 0.01, 5);
    ASSERT_TRUE(data.ok()) << name;
    Rng rng(23);
    std::vector<VertexId> all(data->NumVertices());
    for (size_t v = 0; v < all.size(); ++v) all[v] = static_cast<VertexId>(v);
    for (int trial = 0; trial < 6; ++trial) {
      rng.Shuffle(&all);
      std::vector<VertexId> subset(all.begin(),
                                   all.begin() + all.size() / (trial + 1));
      std::sort(subset.begin(), subset.end());
      auto want = BuildInducedSubgraph(*data, subset);
      ASSERT_TRUE(want.ok());
      testing_util::ExpectSameGraph(
          InducedThroughFactory(*data, subset), want->graph,
          std::string(name) + " trial " + std::to_string(trial));
      ++compared;
    }
  }
  EXPECT_EQ(compared, 12u);
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
