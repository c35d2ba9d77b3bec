// Golden-output pin for the compared estimators.
//
// Each baseline's estimate is a deterministic function of its seed, so a
// refactor that keeps its behaviour must reproduce every estimate bit for
// bit. This suite pins, as hexfloats, the estimates of CSet, SumRDF, CS,
// WanderJoin and JSUB at their default seeds, and of LSS, NSIC-I, NSIC-C
// and NSIC-I w/ SE after a two-epoch Train, on six fixed queries of one
// Erdos-Renyi fixture. One estimator per method answers the queries in
// order, so the sampling pins also fix the sequence of RNG draws.
//
// Like golden_output_test, the learned pins depend on libm's exp/tanh/log;
// on the reference platform (x86-64 glibc) any change is a regression.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/cset.h"
#include "baselines/lss.h"
#include "baselines/nsic.h"
#include "baselines/sampling.h"
#include "baselines/sumrdf.h"
#include "graph/generators.h"
#include "matching/enumeration.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

constexpr size_t kNumQueries = 6;

/// An edge, a path with two same-label ends (injectivity), a triangle
/// (a closing edge), a star, a 4-cycle with a chord and a 5-path.
std::vector<Graph> GoldenQueries() {
  return {
      MakeGraph({0, 1}, {{0, 1}}),
      MakeGraph({0, 1, 0}, {{0, 1}, {1, 2}}),
      MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}}),
      MakeGraph({1, 0, 0, 2}, {{0, 1}, {0, 2}, {0, 3}}),
      MakeGraph({0, 1, 0, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}),
      MakeGraph({2, 0, 1, 0, 2}, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
  };
}

struct Golden {
  const char* method;
  double estimates[kNumQueries];
};

const Golden kGoldens[] = {
    {"CSet",
     {0x1.b000000000002p+6, 0x1.ae00000000005p+8, 0x1.efa9284f3f421p+4,
      0x1.19ffffffffffep+10, 0x1.96f1862f365a1p+4, 0x1.4d742485716d4p+11}},
    {"SumRDF",
     {0x1.bp+6, 0x1.d4c4924924924p+8, 0x1.28a40c89ed311p+5,
      0x1.3ce0e0a72f053p+10, 0x1.51c77aa0f6fafp+5, 0x1.ae2c24f1d1b98p+11}},
    {"CS",
     {0x1.2bfffffffffffp+7, 0x1.76fffffffffffp+9, 0x0p+0,
      0x1.387ffffffffffp+11, 0x0p+0, 0x0p+0}},
    {"WJ",
     {0x1.bp+6, 0x1.9c8f5c28f5c29p+8, 0x1.b8a3d70a3d70ap+4,
      0x1.1e7851eb851ecp+10, 0x1.18ccccccccccdp+5, 0x1.3d811eb851eb8p+11}},
    {"JSUB",
     {0x1.af851eb851eb8p+6, 0x1.684cccccccccdp+8, 0x1.679999999999ap+4,
      0x1.f226666666666p+9, 0x1.f2ccccccccccdp+4, 0x1.2af8ccccccccdp+11}},
    {"LSS",
     {0x1.01f61ap+0, 0x1.02fcfep+0, 0x1.04883cp+0,
      0x1.04b8cep+0, 0x1.093cf2p+0, 0x1.03de2ap+0}},
    {"NSIC-I",
     {0x1.36efdcp+2, 0x1.21b1dap+2, 0x1.44c436p+2,
      0x1.e49744p+2, 0x1.059d3p+3, 0x1.4949eap+2}},
    {"NSIC-C",
     {0x1.0d3854p+0, 0x1.0ce8d8p+0, 0x1.0c0b4ep+0,
      0x1.0e51fep+0, 0x1.0caa08p+0, 0x1.0d1fe4p+0}},
    {"NSIC-I w/ SE",
     {0x1.0d57d8p+1, 0x1.f39fd4p+0, 0x1.0b1de8p+2,
      0x1.834f9ep+2, 0x1.2d799cp+1, 0x1.084552p+2}},
};

std::string HexFloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::unique_ptr<CardinalityEstimator> MakeEstimator(const std::string& method,
                                                    const Graph& data) {
  if (method == "CSet") return std::make_unique<CSetEstimator>(data);
  if (method == "SumRDF") return std::make_unique<SumRdfEstimator>(data);
  if (method == "CS") {
    return std::make_unique<CorrelatedSamplingEstimator>(data);
  }
  if (method == "WJ") return std::make_unique<WanderJoinEstimator>(data);
  if (method == "JSUB") return std::make_unique<JsubEstimator>(data);
  if (method == "LSS") {
    LssEstimator::Options options;
    options.epochs = 2;
    return std::make_unique<LssEstimator>(data, options);
  }
  NsicEstimator::Options options;
  options.epochs = 2;
  options.kind = method == "NSIC-C" ? NsicEstimator::GnnKind::kGcn
                                    : NsicEstimator::GnnKind::kGin;
  options.use_substructure_extraction = method == "NSIC-I w/ SE";
  return std::make_unique<NsicEstimator>(data, options);
}

TEST(BaselinesGoldenTest, EstimatesMatchPinnedHexfloats) {
  auto data = GenerateErdosRenyiGraph(80, 400, 3, 31);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  const std::vector<Graph> queries = GoldenQueries();
  ASSERT_EQ(queries.size(), kNumQueries);
  std::vector<TrainingExample> examples;
  for (const Graph& query : queries) {
    auto truth = CountSubgraphIsomorphisms(query, *data);
    ASSERT_TRUE(truth.ok() && truth->exact);
    examples.push_back({query, static_cast<double>(truth->count)});
  }

  for (const Golden& golden : kGoldens) {
    SCOPED_TRACE(golden.method);
    auto estimator = MakeEstimator(golden.method, *data);
    ASSERT_EQ(estimator->Name(), golden.method);
    ASSERT_TRUE(estimator->Train(examples).ok());
    for (size_t i = 0; i < kNumQueries; ++i) {
      auto estimate = estimator->EstimateCount(queries[i]);
      ASSERT_TRUE(estimate.ok()) << estimate.status().ToString();
      uint64_t got_bits = 0;
      uint64_t want_bits = 0;
      std::memcpy(&got_bits, &*estimate, sizeof(got_bits));
      std::memcpy(&want_bits, &golden.estimates[i], sizeof(want_bits));
      EXPECT_EQ(got_bits, want_bits)
          << "query " << i << ": estimate " << HexFloat(*estimate)
          << ", pinned " << HexFloat(golden.estimates[i]);
    }
  }
}

}  // namespace
}  // namespace neursc
