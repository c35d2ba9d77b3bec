// Golden-output pin for the numeric kernels.
//
// The dense kernels (nn/matrix.cc, nn/kernels.h) may be rewritten for
// speed only if every float they produce keeps its association, so a
// rewrite must reproduce the previous outputs bit for bit. This suite pins
// those outputs: the hexfloat of one WEstModel::Forward prediction per
// {GIN, mean-aggregator} x {inter on, off}, a bit hash of its per-vertex
// representations, and a checksum over every weight and per-epoch loss of
// a short adversarial Train. The values were recorded with the scalar
// kernels the vectorised ones replaced.
//
// The pins depend on libm's exp/tanh/log as well as on the kernels, so a
// platform with a different libm may legitimately disagree; on the
// reference platform (x86-64 glibc) any change is a numeric regression.
// The dimensions are the WEst defaults (32/32/64) so the forward and
// backward GEMMs run full 32-column blocks as well as the 8-wide and
// scalar tails.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/feature_init.h"
#include "core/neursc.h"
#include "core/west.h"
#include "graph/graph.h"
#include "matching/substructure.h"
#include "nn/matrix.h"
#include "nn/tape.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

/// FNV-1a over raw bytes, chained through `h`.
uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

uint64_t HashMatrix(const Matrix& m, uint64_t h) {
  return Fnv1a(m.data(), m.size() * sizeof(float), h);
}

std::string HexFloat(float v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
  return buf;
}

std::string Hex64(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Two labelled 4-cycles with chords, bridged, plus a pendant path: enough
/// structure for a multi-vertex substructure with several candidates per
/// query vertex.
Graph GoldenData() {
  return MakeGraph({0, 1, 2, 1, 0, 1, 2, 1, 2, 0, 1},
                   {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2},
                    {4, 5}, {5, 6}, {6, 7}, {7, 4}, {4, 6},
                    {2, 4}, {6, 8}, {8, 9}, {9, 10}});
}

Graph GoldenQuery() {
  return MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
}

struct ForwardGolden {
  IntraGnnKind kind;
  bool use_inter;
  float prediction;
  uint64_t repr_hash;
};

// Recorded with the scalar kernels (see file comment).
const ForwardGolden kForwardGoldens[] = {
    {IntraGnnKind::kGin, true, 0x1.feaba6p-1f, 0x7bac31cd819ccd36ULL},
    {IntraGnnKind::kGin, false, 0x1.0ae79ep+0f, 0xf7420749df85a6a7ULL},
    {IntraGnnKind::kMeanAggregator, true, 0x1.002daap+0f,
     0x35db39dcf1118398ULL},
    {IntraGnnKind::kMeanAggregator, false, 0x1.ff317ap-1f,
     0xb8b19b91f8c15166ULL},
};

constexpr uint64_t kTrainGolden = 0x5bcea372b397e5beULL;

TEST(GoldenOutputTest, WEstForwardMatchesPinnedHexfloats) {
  Graph data = GoldenData();
  Graph query = GoldenQuery();
  auto ext = ExtractSubstructures(query, data);
  ASSERT_TRUE(ext.ok()) << ext.status().ToString();
  ASSERT_GE(ext->substructures.size(), 1u);
  const Substructure& sub = ext->substructures[0];
  FeatureInitializer features(data, 1);
  Matrix qf = features.Compute(query);
  Matrix sf = features.Compute(sub.graph);

  for (const ForwardGolden& golden : kForwardGoldens) {
    WEstConfig config;
    config.intra_kind = golden.kind;
    config.use_inter = golden.use_inter;
    config.seed = 20240817;
    WEstModel model(features.FeatureDim(), config);
    const std::string what =
        std::string(golden.kind == IntraGnnKind::kGin ? "gin" : "mean") +
        (golden.use_inter ? "+inter" : "");

    Rng eval_rng(5);
    Tape eval;
    auto out = model.Forward(&eval, query, sub, qf, sf, &eval_rng);
    const float prediction = eval.Value(out.prediction).scalar();
    const uint64_t repr_hash = HashMatrix(
        eval.Value(out.sub_repr), HashMatrix(eval.Value(out.query_repr),
                                             kFnvBasis));

    uint32_t got_bits = 0;
    uint32_t want_bits = 0;
    std::memcpy(&got_bits, &prediction, sizeof(got_bits));
    std::memcpy(&want_bits, &golden.prediction, sizeof(want_bits));
    EXPECT_EQ(got_bits, want_bits)
        << what << ": prediction " << HexFloat(prediction) << ", pinned "
        << HexFloat(golden.prediction);
    EXPECT_EQ(repr_hash, golden.repr_hash)
        << what << ": representation hash " << Hex64(repr_hash);
  }
}

TEST(GoldenOutputTest, ShortTrainMatchesPinnedWeightChecksum) {
  Graph data = GoldenData();
  std::vector<TrainingExample> examples = {
      {MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}}), 4.0},
      {MakeGraph({0, 1}, {{0, 1}}), 8.0},
      {MakeGraph({1, 2, 1}, {{0, 1}, {1, 2}}), 10.0},
      {MakeGraph({2, 0, 1}, {{0, 1}, {1, 2}}), 6.0},
      {MakeGraph({0, 1, 2, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}}), 4.0},
      {MakeGraph({2, 2}, {{0, 1}}), 0.0},
  };
  NeurSCConfig config;
  config.batch_size = 3;
  config.pretrain_epochs = 1;
  config.epochs = 3;  // epochs 1..2 run the adversarial phase
  config.seed = 4242;
  NeurSCEstimator estimator(data, config);
  auto stats = estimator.Train(examples);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  uint64_t h = kFnvBasis;
  for (Parameter* p : estimator.model().Parameters()) {
    h = HashMatrix(p->value, h);
  }
  ASSERT_NE(estimator.critic(), nullptr);
  for (Parameter* p : estimator.critic()->Parameters()) {
    h = HashMatrix(p->value, h);
  }
  for (double loss : stats->epoch_mean_loss) {
    h = Fnv1a(&loss, sizeof(loss), h);
  }
  EXPECT_EQ(h, kTrainGolden) << "weights+loss checksum " << Hex64(h);
}

}  // namespace
}  // namespace neursc
