// The checkpoint loader and the text and binary graph readers against the
// stream readers they replaced (stream_readers.h). Over a generated corpus
// of valid inputs and every single-token truncation and replacement of
// them, both must return the same status code and message, bit-identical
// weights and the same graph.

#include <cfloat>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "nn/modules.h"
#include "nn/serialize.h"
#include "stream_readers.h"
#include "test_util.h"

namespace neursc {
namespace {

using oracle::ExpectBinaryReadMatchesOracle;
using oracle::ExpectLoadMatchesOracle;
using oracle::ExpectTextReadMatchesOracle;
using testing_util::WriteFreshFile;

/// What replaces one token: the checkpoint reader's non-finite, range and
/// malformed spellings, the integer reader's signs and overflows, and ""
/// (the token deleted: a missing field). The hexfloats after "param" sit
/// on the edges of the checkpoint scanner's exact shape: an empty
/// fraction, a fourth exponent digit, a byte that does not end the token
/// (a letter, a NUL), the smallest normal exponent and one below it, the
/// largest exponent and one above it, and the largest float.
const std::vector<std::string> kReplacements = {
    "inf", "nan", "1e999", "1e-50", "0x", "1.5x", "",
    "-1", "+2", "18446744073709551616", "4294967296", "0X1P3",
    "-0x1p+0", "0x1.fffffffp+0", "0x1.000003p+0", "0x1p-149", "v", "e",
    "param", "0x1.p+1", "0x1p+0127", "0x1.8p+1x",
    std::string("0x1.8p+1\0", 9), "0x1p-126", "0x1p-127", "0x1p+127",
    "0x1p+128", "-0x1.fffffep+127"};

/// The inputs themselves, the empty input, and for each whitespace-
/// separated token of each input: the input cut before the token and in
/// its middle, and the input with the token replaced by each of
/// kReplacements.
std::vector<std::string> TokenCorpus(const std::vector<std::string>& valid) {
  std::vector<std::string> corpus = valid;
  corpus.push_back("");
  for (const std::string& input : valid) {
    size_t begin = 0;
    while (true) {
      begin = input.find_first_not_of(" \t\n\v\f\r", begin);
      if (begin == std::string::npos) break;
      size_t end = input.find_first_of(" \t\n\v\f\r", begin);
      if (end == std::string::npos) end = input.size();
      corpus.push_back(input.substr(0, begin));
      corpus.push_back(input.substr(0, begin + (end - begin) / 2));
      for (const std::string& r : kReplacements) {
        corpus.push_back(input.substr(0, begin) + r + input.substr(end));
      }
      begin = end;
    }
  }
  return corpus;
}

std::string Replace(std::string text, const std::string& from,
                    const std::string& to) {
  for (size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

std::string SaveToString(const std::vector<Parameter*>& params) {
  std::ostringstream out;
  EXPECT_TRUE(SaveParameters(params, out).ok());
  return out.str();
}

TEST(LoaderOracleTest, CheckpointLoaderMatchesOracle) {
  // One 3x3 weight and a 1x3 bias; the weight holds the values a short
  // decimal rendering or a loose hexfloat parser would get wrong.
  Rng rng(7);
  Mlp saved({3, 3}, Activation::kRelu, &rng);
  const std::vector<Parameter*> saved_params = saved.Parameters();
  const float special[] = {0.0f,
                           -0.0f,
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::denorm_min(),
                           FLT_MAX,
                           -FLT_MAX,
                           std::nextafterf(1.0f, 2.0f),
                           FLT_MIN,
                           0.1f};
  for (size_t i = 0; i < 9; ++i) saved_params[0]->value.data()[i] = special[i];
  const std::string hex = SaveToString(saved_params);
  const std::vector<std::string> valid = {
      hex,
      "neursc-params v1 2\nparam 3 3\n0.5 -1.25 3.0e-2 100 0 -0 1e-40 "
      "3.4028235e38 7\nparam 1 3\n0 -0.75 .5\n",
      "neursc-params v1 2\nparam 3 3\n+1.5 0X1P3 0x1.8p+1 -0x1p-1 1 2 3 4 "
      "5\nparam 1 3\n+0 0x.8p1 0x1P-2\n",
      Replace(Replace(hex, "\n", "\r\n"), " ", "\t"),
      Replace(Replace(hex, "\n", "\f"), " ", "\v"),
      hex + "trailing text after the last parameter\n",
      // No final newline: the last value ends at the end of the text.
      hex.substr(0, hex.size() - 1),
  };
  const std::vector<std::string> corpus = TokenCorpus(valid);
  size_t loaded = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    Rng init(99);
    Mlp model({3, 3}, Activation::kRelu, &init);
    Rng twin_init(99);
    Mlp twin({3, 3}, Activation::kRelu, &twin_init);
    const Status st =
        ExpectLoadMatchesOracle(model.Parameters(), twin.Parameters(),
                                corpus[i], "corpus input " + std::to_string(i));
    loaded += st.ok() ? 1 : 0;
  }
  // Both outcomes are exercised, and every valid input loads.
  EXPECT_GE(loaded, valid.size());
  EXPECT_LT(loaded, corpus.size());

  // The file path reads the same bytes.
  const std::string path = ::testing::TempDir() + "/neursc_oracle.ckpt";
  for (size_t i = 0; i < valid.size(); ++i) {
    WriteFreshFile(path, valid[i]);
    Rng init(99);
    Mlp from_file({3, 3}, Activation::kRelu, &init);
    Rng twin_init(99);
    Mlp twin({3, 3}, Activation::kRelu, &twin_init);
    const Status st = LoadParametersFromFile(from_file.Parameters(), path);
    ASSERT_TRUE(st.ok()) << "valid input " << i << ": " << st.ToString();
    std::istringstream in(valid[i]);
    ASSERT_TRUE(oracle::LoadParameters(twin.Parameters(), in).ok());
    for (size_t k = 0; k < twin.Parameters().size(); ++k) {
      const Matrix& a = from_file.Parameters()[k]->value;
      const Matrix& b = twin.Parameters()[k]->value;
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
          << "valid input " << i << " parameter " << k;
    }
  }
}

TEST(LoaderOracleTest, TextGraphReaderMatchesOracle) {
  auto graph = GenerateErdosRenyiGraph(12, 20, 4, 5);
  ASSERT_TRUE(graph.ok());
  const std::string text = WriteGraphToString(*graph);
  const std::vector<std::string> valid = {
      text,
      Replace(Replace(text, "\n", "\r\n"), " ", "\t"),
      Replace(Replace(text, "\n", "\f"), " ", "\v"),
      text.substr(0, text.size() - 1),
      "t 3 2\nv 0 0 1\nv 1 1 2\nv 2 2 1\ne 0 1\ne 1 2\n",
  };
  const std::vector<std::string> corpus = TokenCorpus(valid);
  size_t read = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    read += ExpectTextReadMatchesOracle(corpus[i],
                                        "corpus input " + std::to_string(i))
                    .ok()
                ? 1
                : 0;
  }
  EXPECT_GE(read, valid.size());
  EXPECT_LT(read, corpus.size());

  // The stream and file entry points read the same bytes.
  const std::string path = ::testing::TempDir() + "/neursc_oracle.graph";
  for (const std::string& input : valid) {
    WriteFreshFile(path, input);
    auto want = ExpectTextReadMatchesOracle(input, "valid input");
    ASSERT_TRUE(want.ok());
    auto from_file = ReadGraphFromFile(path);
    ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
    EXPECT_TRUE(*from_file == *want);
    std::istringstream in(input);
    auto from_stream = ReadGraphFromStream(in);
    ASSERT_TRUE(from_stream.ok());
    EXPECT_TRUE(*from_stream == *want);
  }
  EXPECT_EQ(ReadGraphFromFile("/nonexistent/neursc.graph").status().message(),
            "cannot open /nonexistent/neursc.graph");
  // A directory opens but reads as empty, in both readers.
  std::ifstream dir(::testing::TempDir());
  EXPECT_EQ(ReadGraphFromFile(::testing::TempDir()).status().message(),
            oracle::ReadGraphFromStream(dir).status().message());
}

TEST(LoaderOracleTest, BinaryGraphReaderMatchesOracle) {
  auto graph = GenerateErdosRenyiGraph(10, 16, 3, 6);
  ASSERT_TRUE(graph.ok());
  const std::string path = ::testing::TempDir() + "/neursc_oracle.nscg";
  ASSERT_TRUE(WriteGraphBinary(*graph, path).ok());
  std::string valid;
  {
    std::ifstream in(path, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(valid.size() % 4, 0u);
  // The binary format's tokens are its 4-byte words: cut the file before
  // and inside each word, delete it, or overwrite it.
  const uint32_t words[] = {0, 1, 2, 9, 0xFFFFFFFFu, 0x7FFFFFFFu,
                            static_cast<uint32_t>(kMaxLabels)};
  // The same graph with its edges in reverse order and each edge's
  // endpoints swapped: every adjacency list of two or more entries
  // comes out of the scatter descending, so Build has to sort it.
  const size_t edges_at = 24 + sizeof(uint32_t) * graph->NumVertices();
  std::string unsorted = valid.substr(0, edges_at);
  for (size_t at = valid.size(); at > edges_at; at -= 8) {
    unsorted += valid.substr(at - 4, 4) + valid.substr(at - 8, 4);
  }
  ASSERT_EQ(unsorted.size(), valid.size());
  ASSERT_NE(unsorted, valid);
  WriteFreshFile(path, unsorted);
  auto reordered = ExpectBinaryReadMatchesOracle(path, "unsorted edges");
  ASSERT_TRUE(reordered.ok()) << reordered.status().ToString();
  EXPECT_TRUE(*reordered == *graph);

  std::vector<std::string> corpus = {valid, "", valid + "xyz", unsorted};
  for (size_t at = 0; at < valid.size(); at += 4) {
    corpus.push_back(valid.substr(0, at));
    corpus.push_back(valid.substr(0, at + 2));
    corpus.push_back(valid.substr(0, at) + valid.substr(at + 4));
    for (uint32_t w : words) {
      std::string replaced = valid;
      std::memcpy(replaced.data() + at, &w, sizeof(w));
      corpus.push_back(replaced);
    }
  }
  size_t read = 0;
  for (size_t i = 0; i < corpus.size(); ++i) {
    WriteFreshFile(path, corpus[i]);
    read += ExpectBinaryReadMatchesOracle(path,
                                          "corpus input " + std::to_string(i))
                    .ok()
                ? 1
                : 0;
  }
  EXPECT_GE(read, 1u);
  EXPECT_LT(read, corpus.size());
  ExpectBinaryReadMatchesOracle(::testing::TempDir(), "a directory");
  ExpectBinaryReadMatchesOracle("/nonexistent/neursc.nscg", "missing file");
}

}  // namespace
}  // namespace neursc
