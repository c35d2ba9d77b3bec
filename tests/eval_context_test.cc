// Workspace suite for the execution engine (nn/tape.h).
//
// A Tape reuses its value and gradient arenas across passes, so these
// tests pin what reuse must not change: a pass on a reused tape computes
// the same bits as one on a fresh tape, forward-only and with Backward,
// and after a warm-up pass per shape, repeated passes perform zero arena
// growth. They also cover Leaf's borrow of the parameter value and the
// TapePool that serves training, validation and inference.
//
// The pooled-workspace cases carry the "concurrency" label so the ci.sh
// TSan lane exercises TapePool under real thread contention.

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

// --- Leaf borrows the parameter value -------------------------------

TEST(EvalContextOpTest, LeafBorrowsParameterWithoutCopy) {
  Rng rng(7);
  Parameter p;
  p.value = RandomMatrix(3, 3, &rng);
  Tape tape;
  Var leaf = tape.Leaf(&p);
  // Leaf is a borrow: the node aliases the parameter storage directly.
  EXPECT_EQ(&tape.Value(leaf), &p.value);
  EXPECT_EQ(tape.num_slots(), 0u);
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
  TapePool pool;
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
  TapePool pool;
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

  Tape tape;
  Rng warm_rng(9);
  auto warm = model.Forward(&tape, fx.query, sub, qf, sf, &warm_rng);
  (void)warm;
  const uint64_t grows_after_warmup = tape.arena_grows();
  const size_t bytes_after_warmup = tape.arena_bytes();
  const size_t nodes_after_warmup = tape.NumNodes();
  EXPECT_GT(grows_after_warmup, 0u);
  EXPECT_GT(bytes_after_warmup, 0u);

  // Passes 2..5: identical shapes, so Reset() + Forward must reuse every
  // slot. Both the per-context counters and the global metrics counter
  // must stay flat.
  MetricsRegistry::Global().Reset();
  for (int pass = 2; pass <= 5; ++pass) {
    tape.Reset();
    Rng rng(9);
    auto fw = model.Forward(&tape, fx.query, sub, qf, sf, &rng);
    ExpectBitEqual(tape.Value(fw.prediction), tape.Value(fw.prediction),
                   "self");  // sanity: value readable after reuse
    EXPECT_EQ(tape.arena_grows(), grows_after_warmup) << "pass=" << pass;
    EXPECT_EQ(tape.arena_bytes(), bytes_after_warmup) << "pass=" << pass;
    EXPECT_EQ(tape.NumNodes(), nodes_after_warmup) << "pass=" << pass;
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
  Tape tape;
  Rng rng(3);
  Matrix m = RandomMatrix(6, 6, &rng);
  Var x = tape.Constant(m);
  tape.Relu(tape.MatMul(x, x));
  const size_t slots = tape.num_slots();
  const size_t bytes = tape.arena_bytes();
  ASSERT_GT(slots, 0u);
  tape.Reset();
  EXPECT_EQ(tape.NumNodes(), 0u);
  EXPECT_EQ(tape.num_slots(), slots);   // capacity retained
  EXPECT_EQ(tape.arena_bytes(), bytes);
}

TEST(EvalContextArenaTest, ReusedTapeTrainsBitIdenticalToFreshTape) {
  // One reused tape alternates two training examples of different shapes
  // (WEst forward, q-error loss, Backward into a GradientSink). Every pass
  // must reproduce a fresh tape's loss and sink contents bit for bit, and
  // once each shape has run once the arenas must stop growing.
  Graph data = MakeGraph({0, 1, 2, 0, 1, 2},
                         {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5},
                          {2, 3}});
  FeatureInitializer features(data, 1);
  WEstConfig config;
  config.intra_dim = 8;
  config.inter_dim = 8;
  config.predictor_hidden = 16;
  WEstModel model(features.FeatureDim(), config);

  struct Example {
    Graph query;
    double count = 0.0;
    ExtractionResult extraction;
    Matrix query_features;
    Matrix sub_features;
  };
  std::vector<Example> examples(2);
  examples[0].query = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {0, 2}});
  examples[0].count = 2.0;
  examples[1].query = MakeGraph({2, 0}, {{0, 1}});
  examples[1].count = 7.0;
  for (Example& ex : examples) {
    auto ext = ExtractSubstructures(ex.query, data);
    ASSERT_TRUE(ext.ok()) << ext.status().ToString();
    ASSERT_FALSE(ext->substructures.empty());
    ex.extraction = std::move(ext).value();
    ex.query_features = features.Compute(ex.query);
    ex.sub_features =
        features.Compute(ex.extraction.substructures[0].graph);
  }
  ASSERT_NE(examples[0].sub_features.rows(), examples[1].sub_features.rows());

  // Runs one training pass on `tape`; returns the loss and the sink's
  // gradients, reduced into the (zeroed) parameters and read back.
  auto train_pass = [&](Tape* tape, const Example& ex,
                        std::vector<Matrix>* grads) {
    GradientSink sink;
    tape->set_gradient_sink(&sink);
    Rng rng(17);
    auto fw = model.Forward(tape, ex.query, ex.extraction.substructures[0],
                            ex.query_features, ex.sub_features, &rng);
    Var loss = tape->QErrorLoss(fw.prediction, ex.count);
    tape->Backward(loss);
    model.ZeroGrad();
    sink.ReduceIntoParameters();
    grads->clear();
    for (Parameter* p : model.Parameters()) grads->push_back(p->grad);
    model.ZeroGrad();
    return tape->Value(loss);
  };

  std::vector<Matrix> fresh_loss;
  std::vector<std::vector<Matrix>> fresh_grads(examples.size());
  for (size_t e = 0; e < examples.size(); ++e) {
    Tape fresh;
    fresh_loss.push_back(train_pass(&fresh, examples[e], &fresh_grads[e]));
  }

  Tape tape;
  uint64_t grows_after_warmup = 0;
  for (size_t pass = 0; pass < 6; ++pass) {
    const size_t e = pass % examples.size();
    const std::string what =
        "pass=" + std::to_string(pass) + " example=" + std::to_string(e);
    tape.Reset();
    std::vector<Matrix> grads;
    ExpectBitEqual(train_pass(&tape, examples[e], &grads), fresh_loss[e],
                   what + " loss");
    ASSERT_EQ(grads.size(), fresh_grads[e].size());
    for (size_t p = 0; p < grads.size(); ++p) {
      ExpectBitEqual(grads[p], fresh_grads[e][p],
                     what + " grad of param " + std::to_string(p));
    }
    if (pass + 1 == examples.size()) grows_after_warmup = tape.arena_grows();
    if (pass >= examples.size()) {
      EXPECT_EQ(tape.arena_grows(), grows_after_warmup) << what;
    }
  }
}

}  // namespace
}  // namespace neursc
