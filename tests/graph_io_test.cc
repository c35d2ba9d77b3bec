#include "graph/graph_io.h"

#include <fstream>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

TEST(GraphIoTest, RoundTripSmallGraph) {
  Graph g = MakeGraph({3, 1, 4, 1}, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  std::string text = WriteGraphToString(g);
  auto back = ReadGraphFromString(text);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->NumVertices(), g.NumVertices());
  EXPECT_EQ(back->NumEdges(), g.NumEdges());
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(back->GetLabel(static_cast<VertexId>(v)),
              g.GetLabel(static_cast<VertexId>(v)));
    EXPECT_EQ(back->Degree(static_cast<VertexId>(v)),
              g.Degree(static_cast<VertexId>(v)));
  }
}

TEST(GraphIoTest, ParsesCanonicalFormat) {
  const std::string text =
      "t 3 2\n"
      "v 0 7 1\n"
      "v 1 8 2\n"
      "v 2 7 1\n"
      "e 0 1\n"
      "e 1 2\n";
  auto g = ReadGraphFromString(text);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumVertices(), 3u);
  EXPECT_EQ(g->GetLabel(1), 8u);
  EXPECT_TRUE(g->HasEdge(0, 1));
}

TEST(GraphIoTest, RejectsMissingHeader) {
  EXPECT_FALSE(ReadGraphFromString("v 0 0 0\n").ok());
}

TEST(GraphIoTest, RejectsVertexCountMismatch) {
  EXPECT_FALSE(ReadGraphFromString("t 2 0\nv 0 0 0\n").ok());
}

TEST(GraphIoTest, RejectsEdgeCountMismatch) {
  EXPECT_FALSE(
      ReadGraphFromString("t 2 2\nv 0 0 1\nv 1 0 1\ne 0 1\n").ok());
}

TEST(GraphIoTest, RejectsWrongDeclaredDegree) {
  EXPECT_FALSE(
      ReadGraphFromString("t 2 1\nv 0 0 5\nv 1 0 1\ne 0 1\n").ok());
}

TEST(GraphIoTest, RejectsOutOfOrderVertexIds) {
  EXPECT_FALSE(
      ReadGraphFromString("t 2 0\nv 1 0 0\nv 0 0 0\n").ok());
}

TEST(GraphIoTest, RejectsUnknownTag) {
  EXPECT_FALSE(ReadGraphFromString("t 1 0\nv 0 0 0\nx 1 2\n").ok());
}

TEST(GraphIoTest, RejectsVertexLinesBeyondHeaderCount) {
  auto g = ReadGraphFromString("t 1 0\nv 0 0 0\nv 1 0 0\nv 2 0 0\n");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}

TEST(GraphIoTest, HugeHeaderCountsDoNotAllocate) {
  auto g = ReadGraphFromString("t 4611686018427387904 0\n");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
  auto edges = ReadGraphFromString("t 1 4611686018427387904\nv 0 0 0\n");
  ASSERT_FALSE(edges.ok());
  EXPECT_EQ(edges.status().code(), StatusCode::kIOError);
}

TEST(GraphIoTest, RejectsLabelAboveCap) {
  auto g = ReadGraphFromString("t 1 0\nv 0 4294967280 0\n");
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument()) << g.status().ToString();
  // Beyond 32 bits the label must not wrap around to a valid one.
  auto wide = ReadGraphFromString("t 1 0\nv 0 4294967301 0\n");
  ASSERT_FALSE(wide.ok());
  EXPECT_TRUE(wide.status().IsInvalidArgument());
}

TEST(GraphIoTest, RejectsWideEdgeEndpoints) {
  // 2^32 would wrap to vertex 0 if narrowed before the range check.
  EXPECT_FALSE(
      ReadGraphFromString("t 2 1\nv 0 0 1\nv 1 0 1\ne 4294967296 1\n")
          .ok());
}

TEST(GraphIoTest, FileRoundTrip) {
  auto g = GenerateErdosRenyiGraph(50, 120, 5, 3);
  ASSERT_TRUE(g.ok());
  const std::string path = ::testing::TempDir() + "/neursc_io_test.graph";
  ASSERT_TRUE(WriteGraphToFile(*g, path).ok());
  auto back = ReadGraphFromFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumVertices(), g->NumVertices());
  EXPECT_EQ(back->NumEdges(), g->NumEdges());
  EXPECT_EQ(WriteGraphToString(*back), WriteGraphToString(*g));
}

TEST(GraphIoTest, MissingFileFails) {
  auto g = ReadGraphFromFile("/nonexistent/path/graph.txt");
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}


TEST(GraphIoBinaryTest, RoundTrip) {
  auto g = GenerateErdosRenyiGraph(80, 200, 6, 9);
  ASSERT_TRUE(g.ok());
  const std::string path = ::testing::TempDir() + "/neursc_io_test.nscg";
  ASSERT_TRUE(WriteGraphBinary(*g, path).ok());
  auto back = ReadGraphBinary(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(WriteGraphToString(*back), WriteGraphToString(*g));
}

TEST(GraphIoBinaryTest, RejectsTextFile) {
  auto g = GenerateErdosRenyiGraph(10, 20, 2, 1);
  ASSERT_TRUE(g.ok());
  const std::string path = ::testing::TempDir() + "/neursc_io_test_text.graph";
  ASSERT_TRUE(WriteGraphToFile(*g, path).ok());
  EXPECT_FALSE(ReadGraphBinary(path).ok());
}

TEST(GraphIoBinaryTest, RejectsTruncation) {
  auto g = GenerateErdosRenyiGraph(30, 60, 2, 2);
  ASSERT_TRUE(g.ok());
  const std::string path = ::testing::TempDir() + "/neursc_io_trunc.nscg";
  ASSERT_TRUE(WriteGraphBinary(*g, path).ok());
  // Truncate the file to half its size.
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_FALSE(ReadGraphBinary(path).ok());
}

// Writes an NSCG file with the given header counts followed by `body`.
std::string WriteBinaryFile(const std::string& name, uint64_t num_vertices,
                            uint64_t num_edges,
                            const std::vector<uint32_t>& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const uint32_t version = 1;
  out.write("NSCG", 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&num_vertices),
            sizeof(num_vertices));
  out.write(reinterpret_cast<const char*>(&num_edges), sizeof(num_edges));
  for (uint32_t word : body) {
    out.write(reinterpret_cast<const char*>(&word), sizeof(word));
  }
  return path;
}

TEST(GraphIoBinaryTest, RejectsHeaderCountsBeyondFileSize) {
  // 28 bytes: one label, but 2^61 edges claimed.
  const std::string path =
      WriteBinaryFile("neursc_io_huge_edges.nscg", 1, uint64_t{1} << 61, {0});
  auto g = ReadGraphBinary(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);

  auto vertices = ReadGraphBinary(WriteBinaryFile(
      "neursc_io_huge_vertices.nscg", uint64_t{1} << 62, 0, {0}));
  ASSERT_FALSE(vertices.ok());
  EXPECT_EQ(vertices.status().code(), StatusCode::kIOError);

  // Counts whose byte sizes overflow 64 bits must not wrap into range.
  auto wrap = ReadGraphBinary(WriteBinaryFile(
      "neursc_io_wrap.nscg", 1, (uint64_t{1} << 61) + 1, {0, 0, 0}));
  EXPECT_FALSE(wrap.ok());

  // The exact sizes still load.
  auto exact = ReadGraphBinary(
      WriteBinaryFile("neursc_io_exact.nscg", 2, 1, {3, 4, 0, 1}));
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->NumEdges(), 1u);
  EXPECT_EQ(exact->GetLabel(1), 4u);
}

TEST(GraphIoBinaryTest, RejectsLabelAboveCap) {
  auto g = ReadGraphBinary(
      WriteBinaryFile("neursc_io_label_cap.nscg", 1, 0, {0xFFFFFFF0u}));
  ASSERT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalidArgument()) << g.status().ToString();
}

TEST(GraphIoBinaryTest, EmptyGraphRoundTrip) {
  GraphBuilder b;
  Graph g = std::move(b.Build()).value();
  const std::string path = ::testing::TempDir() + "/neursc_io_empty.nscg";
  ASSERT_TRUE(WriteGraphBinary(g, path).ok());
  auto back = ReadGraphBinary(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumVertices(), 0u);
}


TEST(GraphDotTest, ContainsVerticesAndEdges) {
  Graph g = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}});
  std::string dot = ToDot(g, "demo");
  EXPECT_NE(dot.find("graph demo {"), std::string::npos);
  EXPECT_NE(dot.find("v0 -- v1"), std::string::npos);
  EXPECT_NE(dot.find("v1 -- v2"), std::string::npos);
  EXPECT_EQ(dot.find("v0 -- v2"), std::string::npos);
  EXPECT_NE(dot.find("0:0"), std::string::npos);  // id:label text
}

TEST(GraphDotTest, EmptyGraphStillValid) {
  GraphBuilder b;
  Graph g = std::move(b.Build()).value();
  std::string dot = ToDot(g);
  EXPECT_NE(dot.find("graph g {"), std::string::npos);
  EXPECT_NE(dot.find("}"), std::string::npos);
}

}  // namespace
}  // namespace neursc
