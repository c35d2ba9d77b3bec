// Deterministic mutation fuzz of the readers that take untrusted input: the
// checkpoint loader (LoadParameters) and the text and binary graph readers.
// Each seed input is truncated, bit-flipped and spliced with a fixed RNG.
// Every outcome must be a Status or a valid result: a loaded checkpoint
// holds only finite weights, a rejected one changes no weight, and a read
// graph satisfies the CSR invariants. Every outcome must also be the one
// the stream readers the library replaced return (stream_readers.h).
// Sized to run in well under two seconds under ASan+UBSan.

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/discriminator.h"
#include "core/west.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "nn/serialize.h"
#include "stream_readers.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::ReadFileToString;
using testing_util::SnapshotWeights;
using testing_util::WeightsUnchanged;

constexpr int kMutationsPerInput = 1000;

/// One mutation of `seed`: a truncation, 1-4 bit flips, or a splice of a
/// random span of `seed` over another position.
std::string Mutate(const std::string& seed, Rng* rng) {
  std::string out = seed;
  switch (rng->UniformIndex(3)) {
    case 0:
      out.resize(rng->UniformIndex(seed.size()));
      break;
    case 1: {
      const size_t flips = 1 + rng->UniformIndex(4);
      for (size_t i = 0; i < flips; ++i) {
        out[rng->UniformIndex(out.size())] ^=
            static_cast<char>(1u << rng->UniformIndex(8));
      }
      break;
    }
    default: {
      const size_t from = rng->UniformIndex(seed.size());
      const size_t len = 1 + rng->UniformIndex(seed.size() - from);
      const size_t to = rng->UniformIndex(seed.size());
      out = seed.substr(0, to) + seed.substr(from, len) +
            seed.substr(std::min(seed.size(), to + len));
      break;
    }
  }
  return out;
}

bool AllFinite(const std::vector<Parameter*>& params) {
  for (const Parameter* p : params) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      if (!std::isfinite(p->value.data()[i])) return false;
    }
  }
  return true;
}

/// CSR invariants a successfully read graph must satisfy: labels in range,
/// sorted in-range neighbor lists without self loops, symmetric edges, one
/// neighbor label per neighbor, and |E| matching the degree sum.
void ExpectValidGraph(const Graph& g, const std::string& context) {
  const size_t n = g.NumVertices();
  size_t degree_sum = 0;
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_LT(g.GetLabel(v), kMaxLabels) << context;
    auto nbrs = g.Neighbors(v);
    ASSERT_EQ(g.NeighborLabels(v).size(), nbrs.size()) << context;
    ASSERT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end())) << context;
    for (VertexId w : nbrs) {
      ASSERT_LT(w, n) << context;
      ASSERT_NE(w, v) << context;
      ASSERT_TRUE(g.HasEdge(w, v)) << context;
    }
    degree_sum += nbrs.size();
  }
  ASSERT_EQ(degree_sum, 2 * g.NumEdges()) << context;
}

TEST(InputFuzzTest, CheckpointLoaderRejectsOrLoadsFiniteWeights) {
  WEstConfig config;
  config.intra_dim = 4;
  config.inter_dim = 4;
  config.predictor_hidden = 8;
  auto params_of = [](WEstModel* model, Discriminator* critic) {
    std::vector<Parameter*> params = model->Parameters();
    for (Parameter* p : critic->Parameters()) params.push_back(p);
    return params;
  };
  WEstModel saved_model(6, config);
  Discriminator saved_critic(saved_model.ReprDim(), 4, 0.01f, 3);
  std::ostringstream out;
  ASSERT_TRUE(
      SaveParameters(params_of(&saved_model, &saved_critic), out).ok());
  const std::string seed = out.str();

  config.seed = 99;
  WEstModel model(6, config);
  Discriminator critic(model.ReprDim(), 4, 0.01f, 5);
  const std::vector<Parameter*> params = params_of(&model, &critic);
  // The oracle's copy, in the same state after every load.
  WEstModel twin_model(6, config);
  Discriminator twin_critic(twin_model.ReprDim(), 4, 0.01f, 5);
  const std::vector<Parameter*> twin = params_of(&twin_model, &twin_critic);
  Rng rng(2024);
  size_t accepted = 0;
  size_t rejected = 0;
  for (int i = 0; i < kMutationsPerInput; ++i) {
    const std::string input = Mutate(seed, &rng);
    const auto before = SnapshotWeights(params);
    Status st = oracle::ExpectLoadMatchesOracle(
        params, twin, input, "mutation " + std::to_string(i));
    if (st.ok()) {
      ++accepted;
      EXPECT_TRUE(AllFinite(params)) << "mutation " << i;
    } else {
      ++rejected;
      EXPECT_TRUE(WeightsUnchanged(params, before))
          << "mutation " << i << ": " << st.ToString();
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(InputFuzzTest, TextGraphReaderRejectsOrReturnsValidGraph) {
  auto graph = GenerateErdosRenyiGraph(30, 60, 4, 11);
  ASSERT_TRUE(graph.ok());
  const std::string seed = WriteGraphToString(*graph);
  Rng rng(2025);
  size_t accepted = 0;
  size_t rejected = 0;
  for (int i = 0; i < kMutationsPerInput; ++i) {
    auto read = oracle::ExpectTextReadMatchesOracle(
        Mutate(seed, &rng), "text mutation " + std::to_string(i));
    if (read.ok()) {
      ++accepted;
      ExpectValidGraph(*read, "text mutation " + std::to_string(i));
    } else {
      ++rejected;
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(InputFuzzTest, BinaryGraphReaderRejectsOrReturnsValidGraph) {
  auto graph = GenerateErdosRenyiGraph(30, 60, 4, 12);
  ASSERT_TRUE(graph.ok());
  const std::string path = ::testing::TempDir() + "/neursc_input_fuzz.nscg";
  ASSERT_TRUE(WriteGraphBinary(*graph, path).ok());
  const std::string seed = ReadFileToString(path);
  Rng rng(2026);
  size_t accepted = 0;
  size_t rejected = 0;
  for (int i = 0; i < kMutationsPerInput; ++i) {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << Mutate(seed, &rng);
    auto read = oracle::ExpectBinaryReadMatchesOracle(
        path, "binary mutation " + std::to_string(i));
    if (read.ok()) {
      ++accepted;
      ExpectValidGraph(*read, "binary mutation " + std::to_string(i));
    } else {
      ++rejected;
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace neursc
