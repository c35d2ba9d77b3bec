// Differential suite for the tape-free inference engine (nn/eval.h).
//
// The execution-context refactor (docs/execution.md) promises that the
// forward-only EvalContext and the autograd Tape compute bit-identical
// values: both backends call the shared kernels in nn/kernels.h, so their
// floats agree by construction, not within a tolerance. These tests
// enforce that contract at three levels — op by op, one WEst forward
// pass on fresh weights, and WEst forward passes of a trained estimator
// over every substructure its queries extract — and pin the EvalContext's
// workspace-reuse guarantee: after a warm-up pass, repeated forwards on
// same-shaped inputs perform zero arena growth.
//
// The pooled-workspace cases carry the "concurrency" label so the ci.sh
// TSan lane exercises EvalContextPool under real thread contention.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics_registry.h"
#include "common/rng.h"
#include "core/feature_init.h"
#include "core/neursc.h"
#include "core/west.h"
#include "graph/graph.h"
#include "matching/substructure.h"
#include "nn/eval.h"
#include "nn/tape.h"
#include "test_util.h"

namespace neursc {
namespace {

using testing_util::MakeGraph;

constexpr size_t kThreadCounts[] = {1, 2, 8};

/// Scoped NEURSC_THREADS override; restores the previous value on exit.
class ThreadsGuard {
 public:
  explicit ThreadsGuard(size_t n) {
    const char* old = std::getenv("NEURSC_THREADS");
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    setenv("NEURSC_THREADS", std::to_string(n).c_str(), 1);
  }
  ~ThreadsGuard() {
    if (had_old_) {
      setenv("NEURSC_THREADS", old_.c_str(), 1);
    } else {
      unsetenv("NEURSC_THREADS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

/// Bit-for-bit matrix equality: memcmp over the float payload, so even
/// -0.0 vs 0.0 or differently-rounded last bits fail loudly.
void ExpectBitEqual(const Matrix& a, const Matrix& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << ": value bits differ";
}

Matrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      m.at(i, j) = static_cast<float>(rng->Uniform(-2.0, 2.0));
    }
  }
  return m;
}

NeurSCConfig TinyConfig(uint64_t seed) {
  NeurSCConfig config;
  config.west.intra_dim = 8;
  config.west.inter_dim = 8;
  config.west.predictor_hidden = 16;
  config.disc_hidden = 8;
  config.epochs = 3;
  config.pretrain_epochs = 1;
  config.seed = seed;
  return config;
}

Graph DisjointTriangles(size_t k) {
  std::vector<Label> labels(3 * k, 0);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (size_t c = 0; c < k; ++c) {
    VertexId base = static_cast<VertexId>(3 * c);
    edges.push_back({base, static_cast<VertexId>(base + 1)});
    edges.push_back({static_cast<VertexId>(base + 1),
                     static_cast<VertexId>(base + 2)});
    edges.push_back({base, static_cast<VertexId>(base + 2)});
  }
  return MakeGraph(labels, edges);
}

std::vector<Graph> TestQueries() {
  std::vector<Graph> queries;
  queries.push_back(MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}}));
  queries.push_back(MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}}));
  queries.push_back(MakeGraph({0, 0}, {{0, 1}}));
  return queries;
}

std::vector<TrainingExample> TinyExamples() {
  std::vector<TrainingExample> examples;
  for (const Graph& q : TestQueries()) {
    examples.push_back(TrainingExample{q, 6.0});
  }
  return examples;
}

/// Fixture matching west_test.cc: a triangle query against a data graph of
/// two triangles joined by a bridge edge.
struct WEstFixture {
  Graph query = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
  Graph data = MakeGraph({0, 1, 2, 0, 1, 2},
                         {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5},
                          {2, 3}});
  ExtractionResult extraction;
  FeatureInitializer features{data, 1};

  WEstFixture() {
    auto ext = ExtractSubstructures(query, data);
    EXPECT_TRUE(ext.ok());
    extraction = std::move(ext).value();
    EXPECT_GE(extraction.substructures.size(), 1u);
  }
};

// --- Level 1: every op, bit for bit -----------------------------------

TEST(EvalContextOpTest, OpVocabularyMatchesTapeBitForBit) {
  Rng rng(2024);
  Matrix a4x3 = RandomMatrix(4, 3, &rng);
  Matrix b4x3 = RandomMatrix(4, 3, &rng);
  Matrix b3x5 = RandomMatrix(3, 5, &rng);
  Matrix bias = RandomMatrix(1, 3, &rng);
  Matrix col4 = RandomMatrix(4, 1, &rng);
  Matrix pred(1, 1);
  pred.at(0, 0) = 7.25f;
  std::vector<uint32_t> gather_rows = {2, 0, 3, 1, 2};
  std::vector<uint32_t> scatter_targets = {1, 0, 1, 2};
  std::vector<uint32_t> segments = {0, 0, 1, 1};

  Tape tape;
  EvalContext eval;

  // Each entry builds the same expression on both backends and returns the
  // pair of output nodes to compare.
  struct Case {
    std::string name;
    Var on_tape;
    Var on_eval;
  };
  std::vector<Case> cases;
  auto both = [&](const std::string& name, auto&& build) {
    cases.push_back(Case{name, build(&tape), build(&eval)});
  };

  both("MatMul", [&](auto* ctx) {
    return ctx->MatMul(ctx->Constant(a4x3), ctx->Constant(b3x5));
  });
  both("Add", [&](auto* ctx) {
    return ctx->Add(ctx->Constant(a4x3), ctx->Constant(b4x3));
  });
  both("AddRowBroadcast", [&](auto* ctx) {
    return ctx->AddRowBroadcast(ctx->Constant(a4x3), ctx->Constant(bias));
  });
  both("Sub", [&](auto* ctx) {
    return ctx->Sub(ctx->Constant(a4x3), ctx->Constant(b4x3));
  });
  both("Mul", [&](auto* ctx) {
    return ctx->Mul(ctx->Constant(a4x3), ctx->Constant(b4x3));
  });
  both("Scale", [&](auto* ctx) {
    return ctx->Scale(ctx->Constant(a4x3), 0.37f);
  });
  both("Relu", [&](auto* ctx) { return ctx->Relu(ctx->Constant(a4x3)); });
  both("LeakyRelu", [&](auto* ctx) {
    return ctx->LeakyRelu(ctx->Constant(a4x3), 0.2f);
  });
  both("Sigmoid", [&](auto* ctx) {
    return ctx->Sigmoid(ctx->Constant(a4x3));
  });
  both("Tanh", [&](auto* ctx) { return ctx->Tanh(ctx->Constant(a4x3)); });
  both("Exp", [&](auto* ctx) { return ctx->Exp(ctx->Constant(a4x3)); });
  both("Log", [&](auto* ctx) { return ctx->Log(ctx->Constant(a4x3)); });
  both("RowSoftmax", [&](auto* ctx) {
    return ctx->RowSoftmax(ctx->Constant(a4x3));
  });
  both("ConcatCols", [&](auto* ctx) {
    return ctx->ConcatCols(ctx->Constant(a4x3), ctx->Constant(b4x3));
  });
  both("ConcatRows", [&](auto* ctx) {
    std::vector<Var> parts = {ctx->Constant(a4x3), ctx->Constant(b4x3)};
    return ctx->ConcatRows(parts);
  });
  both("GatherRows", [&](auto* ctx) {
    return ctx->GatherRows(ctx->Constant(a4x3), gather_rows);
  });
  both("ScatterAddRows", [&](auto* ctx) {
    return ctx->ScatterAddRows(ctx->Constant(a4x3), scatter_targets, 3);
  });
  both("SegmentSoftmax", [&](auto* ctx) {
    return ctx->SegmentSoftmax(ctx->Constant(col4), segments, 2);
  });
  both("ColBroadcastMul", [&](auto* ctx) {
    return ctx->ColBroadcastMul(ctx->Constant(a4x3), ctx->Constant(col4));
  });
  both("SumRows", [&](auto* ctx) {
    return ctx->SumRows(ctx->Constant(a4x3));
  });
  both("MeanRows", [&](auto* ctx) {
    return ctx->MeanRows(ctx->Constant(a4x3));
  });
  both("ReduceSum", [&](auto* ctx) {
    return ctx->ReduceSum(ctx->Constant(a4x3));
  });
  both("QErrorLoss", [&](auto* ctx) {
    return ctx->QErrorLoss(ctx->Constant(pred), 12.0);
  });

  for (const Case& c : cases) {
    ExpectBitEqual(tape.Value(c.on_tape), eval.Value(c.on_eval), c.name);
  }
}

TEST(EvalContextOpTest, LeafBorrowsParameterWithoutCopy) {
  Rng rng(7);
  Parameter p;
  p.value = RandomMatrix(3, 3, &rng);
  EvalContext eval;
  Var leaf = eval.Leaf(&p);
  // Leaf is a borrow: the node aliases the parameter storage directly.
  EXPECT_EQ(&eval.Value(leaf), &p.value);
  EXPECT_EQ(eval.num_slots(), 0u);
}

// --- Level 2: one WEst forward pass, all variants ---------------------

TEST(EvalContextWEstTest, ForwardBitIdenticalAcrossBackends) {
  WEstFixture fx;
  const Substructure& sub = fx.extraction.substructures[0];
  Matrix qf = fx.features.Compute(fx.query);
  Matrix sf = fx.features.Compute(sub.graph);
  for (IntraGnnKind kind : {IntraGnnKind::kGin, IntraGnnKind::kMeanAggregator}) {
    for (bool use_inter : {true, false}) {
      for (uint64_t seed : {11u, 22u, 33u}) {
        WEstConfig config;
        config.intra_dim = 8;
        config.inter_dim = 8;
        config.predictor_hidden = 16;
        config.intra_kind = kind;
        config.use_inter = use_inter;
        config.seed = seed;
        WEstModel model(fx.features.FeatureDim(), config);
        const std::string what =
            std::string(kind == IntraGnnKind::kGin ? "gin" : "mean") +
            (use_inter ? "+inter" : "") + " seed=" + std::to_string(seed);

        Rng tape_rng(seed * 31 + 1);
        Tape tape;
        auto on_tape =
            model.Forward(&tape, fx.query, sub, qf, sf, &tape_rng);

        Rng eval_rng(seed * 31 + 1);
        EvalContext eval;
        auto on_eval =
            model.Forward(&eval, fx.query, sub, qf, sf, &eval_rng);

        ExpectBitEqual(tape.Value(on_tape.prediction),
                       eval.Value(on_eval.prediction), what + " prediction");
        ExpectBitEqual(tape.Value(on_tape.query_repr),
                       eval.Value(on_eval.query_repr), what + " query_repr");
        ExpectBitEqual(tape.Value(on_tape.sub_repr),
                       eval.Value(on_eval.sub_repr), what + " sub_repr");
      }
    }
  }
}

// --- Level 3: trained weights on real extracted substructures ----------

TEST(EvalContextWEstTest, TrainedForwardBitIdenticalAcrossBackends) {
  // Training moves the weights away from their initialization, and
  // extraction yields the substructures Estimate actually evaluates, so
  // this covers what the fresh-weight single-fixture case above cannot.
  Graph data = DisjointTriangles(8);
  for (IntraGnnKind kind : {IntraGnnKind::kGin, IntraGnnKind::kMeanAggregator}) {
    for (bool use_inter : {true, false}) {
      for (uint64_t seed : {77u, 123u, 55u}) {
        NeurSCConfig config = TinyConfig(seed);
        config.west.intra_kind = kind;
        config.west.use_inter = use_inter;
        NeurSCEstimator estimator(data, config);
        ASSERT_TRUE(estimator.Train(TinyExamples()).ok());
        FeatureInitializer features(data, config.west.feature_hops);
        const std::string variant =
            std::string(kind == IntraGnnKind::kGin ? "gin" : "mean") +
            (use_inter ? "+inter" : "") + " seed=" + std::to_string(seed);

        std::vector<Graph> queries = TestQueries();
        for (size_t q = 0; q < queries.size(); ++q) {
          auto ext = ExtractSubstructures(queries[q], data, config.filter);
          ASSERT_TRUE(ext.ok()) << ext.status().ToString();
          ASSERT_FALSE(ext->substructures.empty()) << variant;
          Matrix qf = features.Compute(queries[q]);
          for (size_t j = 0; j < ext->substructures.size(); ++j) {
            const Substructure& sub = ext->substructures[j];
            Matrix sf = features.Compute(sub.graph);
            const std::string what = variant + " query=" + std::to_string(q) +
                                     " sub=" + std::to_string(j);

            Rng tape_rng(seed + j);
            Tape tape;
            auto on_tape = estimator.model().Forward(&tape, queries[q], sub,
                                                     qf, sf, &tape_rng);

            Rng eval_rng(seed + j);
            EvalContext eval;
            auto on_eval = estimator.model().Forward(&eval, queries[q], sub,
                                                     qf, sf, &eval_rng);

            ExpectBitEqual(tape.Value(on_tape.prediction),
                           eval.Value(on_eval.prediction),
                           what + " prediction");
            ExpectBitEqual(tape.Value(on_tape.query_repr),
                           eval.Value(on_eval.query_repr),
                           what + " query_repr");
            ExpectBitEqual(tape.Value(on_tape.sub_repr),
                           eval.Value(on_eval.sub_repr), what + " sub_repr");
          }
        }
      }
    }
  }
}

// --- Pooled workspaces under parallelism (TSan lane) ------------------

TEST(EvalContextPoolTest, PooledEstimateBitIdenticalAcrossThreadCounts) {
  Graph data = DisjointTriangles(8);
  std::vector<Graph> queries = TestQueries();
  std::vector<double> reference;
  {
    ThreadsGuard guard(1);
    NeurSCEstimator estimator(data, TinyConfig(42));
    for (const Graph& q : queries) {
      auto info = estimator.Estimate(q);
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      reference.push_back(info->count);
    }
  }
  for (size_t threads : kThreadCounts) {
    ThreadsGuard guard(threads);
    NeurSCEstimator estimator(data, TinyConfig(42));
    for (size_t i = 0; i < queries.size(); ++i) {
      auto info = estimator.Estimate(queries[i]);
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      EXPECT_EQ(info->count, reference[i])
          << "threads=" << threads << " query=" << i;
    }
  }
}

TEST(EvalContextPoolTest, SequentialLeasesReuseOneContext) {
  EvalContextPool pool;
  for (int i = 0; i < 5; ++i) {
    auto lease = pool.Acquire();
    lease->Constant(Matrix(2, 2));
  }
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(EvalContextPoolTest, ConcurrentLeasesAreExclusive) {
  // Hammer the pool from many threads; each lease runs a small forward
  // chain on its context. TSan (ci.sh lane 2) verifies exclusivity; the
  // created() bound verifies leases never alias.
  EvalContextPool pool;
  constexpr size_t kThreads = 8;
  constexpr int kItersPerThread = 50;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kItersPerThread; ++i) {
        auto ctx = pool.Acquire();
        Matrix m = RandomMatrix(3, 3, &rng);
        Var x = ctx->Constant(m);
        Var y = ctx->Relu(ctx->MatMul(x, x));
        ASSERT_EQ(ctx->Value(y).rows(), 3u);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_LE(pool.created(), kThreads);
  EXPECT_EQ(pool.idle(), pool.created());
}

// --- Workspace reuse: zero arena growth after warm-up -----------------

TEST(EvalContextArenaTest, NoGrowthAfterWarmupOnWEstForward) {
  WEstFixture fx;
  const Substructure& sub = fx.extraction.substructures[0];
  Matrix qf = fx.features.Compute(fx.query);
  Matrix sf = fx.features.Compute(sub.graph);
  WEstConfig config;
  config.intra_dim = 8;
  config.inter_dim = 8;
  config.predictor_hidden = 16;
  WEstModel model(fx.features.FeatureDim(), config);

  EvalContext eval;
  Rng warm_rng(9);
  auto warm = model.Forward(&eval, fx.query, sub, qf, sf, &warm_rng);
  (void)warm;
  const uint64_t grows_after_warmup = eval.arena_grows();
  const size_t bytes_after_warmup = eval.arena_bytes();
  const size_t nodes_after_warmup = eval.NumNodes();
  EXPECT_GT(grows_after_warmup, 0u);
  EXPECT_GT(bytes_after_warmup, 0u);

  // Passes 2..5: identical shapes, so Reset() + Forward must reuse every
  // slot. Both the per-context counters and the global metrics counter
  // must stay flat.
  MetricsRegistry::Global().Reset();
  for (int pass = 2; pass <= 5; ++pass) {
    eval.Reset();
    Rng rng(9);
    auto fw = model.Forward(&eval, fx.query, sub, qf, sf, &rng);
    ExpectBitEqual(eval.Value(fw.prediction), eval.Value(fw.prediction),
                   "self");  // sanity: value readable after reuse
    EXPECT_EQ(eval.arena_grows(), grows_after_warmup) << "pass=" << pass;
    EXPECT_EQ(eval.arena_bytes(), bytes_after_warmup) << "pass=" << pass;
    EXPECT_EQ(eval.NumNodes(), nodes_after_warmup) << "pass=" << pass;
  }
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("eval/arena_grows")->Value(),
            0);
}

TEST(EvalContextArenaTest, EstimatorSteadyStateAllocationsAreZero) {
  // Estimator-level version of the reuse guarantee: after a warm-up
  // Estimate, re-estimating the same query grows no pooled arena. Pinned
  // to one thread so the pool hands the same warmed context to every task.
  ThreadsGuard guard(1);
  Graph data = DisjointTriangles(8);
  NeurSCEstimator estimator(data, TinyConfig(42));
  Graph query = MakeGraph({0, 0, 0}, {{0, 1}, {1, 2}, {0, 2}});
  auto warm = estimator.Estimate(query);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  MetricsRegistry::Global().Reset();
  for (int pass = 0; pass < 3; ++pass) {
    auto info = estimator.Estimate(query);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(info->count, warm->count);
  }
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("eval/arena_grows")->Value(),
            0);
}

TEST(EvalContextArenaTest, ResetKeepsCapacityAndShrinksNodes) {
  EvalContext eval;
  Rng rng(3);
  Matrix m = RandomMatrix(6, 6, &rng);
  Var x = eval.Constant(m);
  eval.Relu(eval.MatMul(x, x));
  const size_t slots = eval.num_slots();
  const size_t bytes = eval.arena_bytes();
  ASSERT_GT(slots, 0u);
  eval.Reset();
  EXPECT_EQ(eval.NumNodes(), 0u);
  EXPECT_EQ(eval.num_slots(), slots);   // capacity retained
  EXPECT_EQ(eval.arena_bytes(), bytes);
}

}  // namespace
}  // namespace neursc
