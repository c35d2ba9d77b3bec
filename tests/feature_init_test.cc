#include "core/feature_init.h"

#include <cstring>
#include <queue>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/query_generator.h"
#include "matching/substructure.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

TEST(BitsForTest, KnownValues) {
  EXPECT_EQ(BitsFor(0), 1u);
  EXPECT_EQ(BitsFor(1), 1u);
  EXPECT_EQ(BitsFor(2), 2u);
  EXPECT_EQ(BitsFor(3), 2u);
  EXPECT_EQ(BitsFor(4), 3u);
  EXPECT_EQ(BitsFor(255), 8u);
  EXPECT_EQ(BitsFor(256), 9u);
}

TEST(FeatureInitTest, DimensionFormula) {
  FeatureInitializer f(/*degree_bits=*/4, /*label_bits=*/3, /*num_hops=*/2);
  EXPECT_EQ(f.FeatureDim(), 3u * 7u);
}

TEST(FeatureInitTest, SizedFromDataGraph) {
  Graph data = MakeGraph({0, 1, 2, 3, 4, 5, 6, 7},
                         {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  // Max degree 5 -> 3 bits; 8 labels -> max label 7 -> 3 bits.
  FeatureInitializer f(data, 1);
  EXPECT_EQ(f.degree_bits(), 3u);
  EXPECT_EQ(f.label_bits(), 3u);
  EXPECT_EQ(f.FeatureDim(), 2u * 6u);
}

TEST(FeatureInitTest, OwnBlockEncodesDegreeAndLabel) {
  // Path: v0(l=2)-v1(l=5)-v2(l=1).
  Graph g = MakeGraph({2, 5, 1}, {{0, 1}, {1, 2}});
  FeatureInitializer f(/*degree_bits=*/3, /*label_bits=*/3, /*num_hops=*/0);
  Matrix x = f.Compute(g);
  ASSERT_EQ(x.cols(), 6u);
  // v1: degree 2 -> bits 010 (LSB first: 0,1,0); label 5 -> 101 (1,0,1).
  EXPECT_FLOAT_EQ(x.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(x.at(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(x.at(1, 2), 0.0f);
  EXPECT_FLOAT_EQ(x.at(1, 3), 1.0f);
  EXPECT_FLOAT_EQ(x.at(1, 4), 0.0f);
  EXPECT_FLOAT_EQ(x.at(1, 5), 1.0f);
}

TEST(FeatureInitTest, SaturatesOutOfRangeValues) {
  Graph g = MakeGraph({7, 0, 0, 0}, {{0, 1}, {0, 2}, {0, 3}});
  // Only 1 bit for everything: degree 3 and label 7 saturate to 1.
  FeatureInitializer f(1, 1, 0);
  Matrix x = f.Compute(g);
  EXPECT_FLOAT_EQ(x.at(0, 0), 1.0f);  // degree
  EXPECT_FLOAT_EQ(x.at(0, 1), 1.0f);  // label
}

TEST(FeatureInitTest, OneHopMeanPooling) {
  // Star center v0 with leaves labeled 1 and 3; degree bits 2, label bits 2.
  Graph g = MakeGraph({0, 1, 3}, {{0, 1}, {0, 2}});
  FeatureInitializer f(2, 2, 1);
  Matrix x = f.Compute(g);
  ASSERT_EQ(x.cols(), 8u);
  // Hop-1 block of v0 = mean of leaves' (degree=1 -> 10; label bits).
  // leaf degrees: 1 -> bits (1,0). labels: 1 -> (1,0); 3 -> (1,1).
  EXPECT_FLOAT_EQ(x.at(0, 4), 1.0f);   // mean degree bit0 = 1
  EXPECT_FLOAT_EQ(x.at(0, 5), 0.0f);   // mean degree bit1 = 0
  EXPECT_FLOAT_EQ(x.at(0, 6), 1.0f);   // label bit0: both 1
  EXPECT_FLOAT_EQ(x.at(0, 7), 0.5f);   // label bit1: one of two
}

TEST(FeatureInitTest, TwoHopRings) {
  // Path v0-v1-v2: v0's 2-hop ring is {v2}.
  Graph g = MakeGraph({0, 0, 3}, {{0, 1}, {1, 2}});
  FeatureInitializer f(2, 2, 2);
  Matrix x = f.Compute(g);
  ASSERT_EQ(x.cols(), 12u);
  // v0 hop2 block: v2 has degree 1 (1,0) and label 3 (1,1).
  EXPECT_FLOAT_EQ(x.at(0, 8), 1.0f);
  EXPECT_FLOAT_EQ(x.at(0, 9), 0.0f);
  EXPECT_FLOAT_EQ(x.at(0, 10), 1.0f);
  EXPECT_FLOAT_EQ(x.at(0, 11), 1.0f);
}

TEST(FeatureInitTest, EmptyRingStaysZero) {
  Graph g = MakeGraph({0, 0}, {{0, 1}});
  FeatureInitializer f(2, 2, 2);  // 2-hop ring of both vertices is empty
  Matrix x = f.Compute(g);
  for (size_t c = 8; c < 12; ++c) {
    EXPECT_FLOAT_EQ(x.at(0, c), 0.0f);
    EXPECT_FLOAT_EQ(x.at(1, c), 0.0f);
  }
}

TEST(FeatureInitTest, FeaturesAreBinaryOrAverages) {
  Graph g = MakeGraph({0, 1, 2, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  FeatureInitializer f(g, 1);
  Matrix x = f.Compute(g);
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_GE(x.data()[i], 0.0f);
    EXPECT_LE(x.data()[i], 1.0f);
  }
}

// --- Oracle: Compute as written before it became linear, a fresh BFS from
// every vertex that refills an n-entry distance array and re-encodes each
// ring member. The fast path must reproduce it bit for bit. ---

void OracleEncodeBinary(size_t value, size_t bits, float* out) {
  if ((value >> bits) != 0) value = (static_cast<size_t>(1) << bits) - 1;
  for (size_t b = 0; b < bits; ++b) {
    out[b] = static_cast<float>((value >> b) & 1u);
  }
}

Matrix OracleCompute(const FeatureInitializer& f, const Graph& g) {
  const size_t degree_bits = f.degree_bits();
  const size_t label_bits = f.label_bits();
  const size_t num_hops = f.num_hops();
  const size_t n = g.NumVertices();
  const size_t base = degree_bits + label_bits;
  Matrix features(n, f.FeatureDim());
  for (size_t v = 0; v < n; ++v) {
    float* row = features.row(v);
    OracleEncodeBinary(g.Degree(static_cast<VertexId>(v)), degree_bits, row);
    OracleEncodeBinary(g.GetLabel(static_cast<VertexId>(v)), label_bits,
                       row + degree_bits);
  }
  if (num_hops == 0) return features;
  std::vector<uint32_t> dist(n);
  std::vector<float> encode_buffer(base);
  for (size_t v = 0; v < n; ++v) {
    std::fill(dist.begin(), dist.end(), UINT32_MAX);
    std::queue<VertexId> queue;
    dist[v] = 0;
    queue.push(static_cast<VertexId>(v));
    std::vector<size_t> ring_count(num_hops + 1, 0);
    float* row = features.row(v);
    while (!queue.empty()) {
      VertexId x = queue.front();
      queue.pop();
      uint32_t d = dist[x];
      if (d > 0 && d <= num_hops) {
        float* block = row + base * d;
        OracleEncodeBinary(g.Degree(x), degree_bits, encode_buffer.data());
        OracleEncodeBinary(g.GetLabel(x), label_bits,
                           encode_buffer.data() + degree_bits);
        for (size_t i = 0; i < base; ++i) block[i] += encode_buffer[i];
        ++ring_count[d];
      }
      if (d >= num_hops) continue;
      for (VertexId w : g.Neighbors(x)) {
        if (dist[w] == UINT32_MAX) {
          dist[w] = d + 1;
          queue.push(w);
        }
      }
    }
    for (size_t hop = 1; hop <= num_hops; ++hop) {
      if (ring_count[hop] == 0) continue;
      float inv = 1.0f / static_cast<float>(ring_count[hop]);
      float* block = row + base * hop;
      for (size_t i = 0; i < base; ++i) block[i] *= inv;
    }
  }
  return features;
}

/// Compute(g) at hops 0-3, each compared byte for byte with the oracle.
/// Encoders are sized from `sizing` or, without it, given narrow widths
/// that saturate. Returns the number of rows compared.
size_t ExpectMatchesOracle(const Graph& g, const Graph* sizing,
                           const std::string& context) {
  size_t rows = 0;
  for (size_t hops = 0; hops <= 3; ++hops) {
    FeatureInitializer f = sizing != nullptr ? FeatureInitializer(*sizing, hops)
                                             : FeatureInitializer(2, 2, hops);
    Matrix got = f.Compute(g);
    Matrix want = OracleCompute(f, g);
    EXPECT_EQ(got.rows(), want.rows()) << context;
    EXPECT_EQ(got.cols(), want.cols()) << context;
    // An empty matrix has no data pointer to hand to memcmp.
    if (got.size() != want.size() || got.size() == 0) continue;
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << context << " hops " << hops;
    rows += got.rows();
  }
  return rows;
}

TEST(FeatureInitTest, BitIdenticalToPerVertexBfsOnSmallGraphs) {
  // Isolated vertices between connected ones.
  ExpectMatchesOracle(MakeGraph({0, 3, 1, 2, 0}, {{0, 2}, {2, 4}}), nullptr,
                      "isolated");
  ExpectMatchesOracle(MakeGraph({1, 2, 3}, {}), nullptr, "edgeless");
  ExpectMatchesOracle(MakeGraph({}, {}), nullptr, "empty");
  // Degree 6 and label 7 saturate 2-bit encodings; a tail off the star
  // gives every hop a non-empty ring somewhere.
  ExpectMatchesOracle(MakeGraph({7, 1, 2, 3, 0, 1, 2, 3, 5},
                                {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5},
                                 {0, 6}, {6, 7}, {7, 8}}),
                      nullptr, "saturating star");
  // A cycle reaches some vertices on two paths of one length.
  ExpectMatchesOracle(MakeGraph({0, 1, 2, 1, 0, 1},
                                {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                                 {5, 0}, {0, 3}}),
                      nullptr, "cycle with chord");
}

TEST(FeatureInitTest, BitIdenticalToPerVertexBfsOnGeneratedSubstructures) {
  size_t rows = 0;
  size_t substructures = 0;
  for (const char* name : {"Yeast", "Wordnet"}) {
    auto profile = FindDatasetProfile(name);
    ASSERT_TRUE(profile.ok());
    const bool yeast = std::string(name) == "Yeast";
    auto data = GenerateDataset(*profile, yeast ? 0.3 : 0.01, 9);
    ASSERT_TRUE(data.ok()) << name;
    // The whole data graph is what "w/o SE" featurizes.
    rows += ExpectMatchesOracle(*data, &*data, std::string(name) + " data");
    for (size_t size : {4u, 8u, 16u}) {
      QueryGeneratorConfig qc;
      qc.query_size = size;
      qc.seed = 31 + size;
      QueryGenerator generator(*data, qc);
      auto queries = generator.GenerateMany(3);
      ASSERT_TRUE(queries.ok()) << name << " size " << size;
      for (size_t q = 0; q < queries->size(); ++q) {
        const std::string where = std::string(name) + " size " +
                                  std::to_string(size) + " query " +
                                  std::to_string(q);
        const Graph& query = (*queries)[q];
        rows += ExpectMatchesOracle(query, &*data, where);
        auto extraction = ExtractSubstructures(query, *data);
        ASSERT_TRUE(extraction.ok()) << where;
        for (const Substructure& sub : extraction->substructures) {
          rows += ExpectMatchesOracle(sub.graph, &*data, where);
          ++substructures;
        }
      }
    }
  }
  // The sweep must reach real substructures, not only queries.
  EXPECT_GT(substructures, 10u);
  EXPECT_GT(rows, 1000u);
}

}  // namespace
}  // namespace neursc
