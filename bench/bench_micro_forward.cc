// Micro-benchmark: one WEst forward pass on the autograd Tape vs the
// tape-free EvalContext, over the Table-4 model sizes (tiny harness,
// bench default, paper-scale 128-dim). For each size the harness runs the
// same (query, substructure, seed) forward on both backends and reports
//
//   - single-forward latency (informational only on the 1-CPU container),
//   - heap allocations per pass (counted via the global operator new
//     override below), and
//   - EvalContext arena growth per steady-state pass.
//
// Gates — the properties ci.sh enforces — are deliberately wall-clock
// free: the run exits non-zero if (a) any pass's prediction differs
// between the backends by a single bit, (b) the EvalContext arena grows
// after its warm-up pass, or (c) a steady-state EvalContext pass heap-
// allocates as much as the Tape pass it replaces (the refactor's point).
// Speedup and allocation ratios are exported as gauges through
// --metrics-out for trend tracking.
//
// Environment: NEURSC_PASSES overrides the per-backend pass count
// (default 30).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/metrics_registry.h"
#include "common/timer.h"
#include "core/feature_init.h"
#include "core/west.h"
#include "matching/substructure.h"
#include "nn/eval.h"
#include "nn/tape.h"

// --- Global allocation counter -----------------------------------------
// Counts every operator new call in the process. The per-pass deltas
// attribute allocations to the forward passes because the measurement
// loops do nothing else. Single-threaded main, but the counter is atomic
// so incidental library threads cannot corrupt it.

namespace {
std::atomic<uint64_t> g_alloc_calls{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace neursc;
using namespace neursc::bench;

namespace {

uint64_t AllocCalls() {
  return g_alloc_calls.load(std::memory_order_relaxed);
}

/// k disjoint triangles, uniform label 0: extraction of a triangle query
/// yields one substructure per component, deterministically.
Graph DisjointTriangles(size_t k) {
  GraphBuilder builder;
  for (size_t i = 0; i < 3 * k; ++i) builder.AddVertex(0);
  for (size_t c = 0; c < k; ++c) {
    VertexId base = static_cast<VertexId>(3 * c);
    (void)builder.AddEdge(base, base + 1);
    (void)builder.AddEdge(base + 1, base + 2);
    (void)builder.AddEdge(base, base + 2);
  }
  auto graph = builder.Build();
  if (!graph.ok()) std::abort();
  return std::move(graph).value();
}

Graph TriangleQuery() { return DisjointTriangles(1); }

struct SizePoint {
  std::string name;
  size_t intra_dim;
  size_t inter_dim;
  size_t predictor_hidden;
};

struct BackendRun {
  double seconds_per_pass = 0.0;
  uint64_t allocs_per_pass = 0;
  std::vector<float> predictions;  // one per pass, for the agreement gate
};

}  // namespace

int main(int argc, char** argv) {
  ObservabilitySession observability(&argc, argv);

  size_t passes = 30;
  if (const char* env = std::getenv("NEURSC_PASSES")) {
    if (std::atol(env) > 0) passes = static_cast<size_t>(std::atol(env));
  }

  PrintSection("Single-forward latency: Tape vs EvalContext (Table 4 sizes)");

  Graph data = DisjointTriangles(10);
  Graph query = TriangleQuery();
  auto ext = ExtractSubstructures(query, data);
  if (!ext.ok() || ext->substructures.empty()) {
    std::fprintf(stderr, "extraction failed\n");
    return 1;
  }
  const Substructure& sub = ext->substructures[0];
  FeatureInitializer features(data, 1);
  Matrix query_features = features.Compute(query);
  Matrix sub_features = features.Compute(sub.graph);

  const std::vector<SizePoint> sizes = {
      {"tiny-8", 8, 8, 16},
      {"bench-32", 32, 32, 64},
      {"paper-128", 128, 128, 128},
  };

  bool failed = false;
  std::vector<std::vector<std::string>> rows;
  for (const SizePoint& size : sizes) {
    WEstConfig config;
    config.intra_dim = size.intra_dim;
    config.inter_dim = size.inter_dim;
    config.predictor_hidden = size.predictor_hidden;
    config.seed = 1234;
    WEstModel model(features.FeatureDim(), config);

    // --- Tape: a fresh tape per pass, as each training example gets. ---
    BackendRun tape_run;
    {
      Timer timer;
      const uint64_t allocs_before = AllocCalls();
      for (size_t pass = 0; pass < passes; ++pass) {
        Rng rng(1000 + pass);
        Tape tape;
        auto fw = model.Forward(&tape, query, sub, query_features,
                                sub_features, &rng);
        tape_run.predictions.push_back(tape.Value(fw.prediction).scalar());
      }
      tape_run.seconds_per_pass = timer.ElapsedSeconds() / passes;
      tape_run.allocs_per_pass = (AllocCalls() - allocs_before) / passes;
    }

    // --- EvalContext: one context, Reset() between passes. Pass 0 is the
    // warm-up that sizes the arena; the steady-state window (passes 1..N)
    // is what the allocation and growth gates measure. ---
    BackendRun eval_run;
    EvalContext ctx;
    {
      Rng rng(1000);
      auto fw = model.Forward(&ctx, query, sub, query_features,
                              sub_features, &rng);
      eval_run.predictions.push_back(ctx.Value(fw.prediction).scalar());
    }
    const uint64_t grows_after_warmup = ctx.arena_grows();
    {
      Timer timer;
      const uint64_t allocs_before = AllocCalls();
      for (size_t pass = 1; pass < passes; ++pass) {
        Rng rng(1000 + pass);
        ctx.Reset();
        auto fw = model.Forward(&ctx, query, sub, query_features,
                                sub_features, &rng);
        eval_run.predictions.push_back(ctx.Value(fw.prediction).scalar());
      }
      eval_run.seconds_per_pass = timer.ElapsedSeconds() / (passes - 1);
      eval_run.allocs_per_pass =
          (AllocCalls() - allocs_before) / (passes - 1);
    }
    const uint64_t steady_grows = ctx.arena_grows() - grows_after_warmup;

    // Gate (a): bit agreement on every pass.
    for (size_t pass = 0; pass < passes; ++pass) {
      if (std::memcmp(&tape_run.predictions[pass],
                      &eval_run.predictions[pass], sizeof(float)) != 0) {
        std::fprintf(stderr,
                     "FAIL[%s]: pass %zu prediction differs between "
                     "backends (tape %.9g vs eval %.9g)\n",
                     size.name.c_str(), pass, tape_run.predictions[pass],
                     eval_run.predictions[pass]);
        failed = true;
        break;
      }
    }
    // Gate (b): zero arena growth after warm-up.
    if (steady_grows != 0) {
      std::fprintf(stderr,
                   "FAIL[%s]: arena grew %llu times after warm-up\n",
                   size.name.c_str(),
                   static_cast<unsigned long long>(steady_grows));
      failed = true;
    }
    // Gate (c): the tape-free pass must allocate strictly less than the
    // Tape pass (closure/grad/node allocations are what it removes; the
    // residual allocations are the per-pass bipartite edge lists, which
    // both backends share).
    if (eval_run.allocs_per_pass >= tape_run.allocs_per_pass) {
      std::fprintf(stderr,
                   "FAIL[%s]: EvalContext pass allocates %llu times, "
                   "Tape pass %llu\n",
                   size.name.c_str(),
                   static_cast<unsigned long long>(eval_run.allocs_per_pass),
                   static_cast<unsigned long long>(tape_run.allocs_per_pass));
      failed = true;
    }

    const double speedup =
        eval_run.seconds_per_pass > 0.0
            ? tape_run.seconds_per_pass / eval_run.seconds_per_pass
            : 0.0;
    NEURSC_GAUGE_SET("bench/micro_forward/" + size.name + "/speedup",
                     speedup);
    NEURSC_GAUGE_SET("bench/micro_forward/" + size.name + "/tape_allocs",
                     static_cast<double>(tape_run.allocs_per_pass));
    NEURSC_GAUGE_SET("bench/micro_forward/" + size.name + "/eval_allocs",
                     static_cast<double>(eval_run.allocs_per_pass));
    NEURSC_GAUGE_SET("bench/micro_forward/" + size.name + "/arena_bytes",
                     static_cast<double>(ctx.arena_bytes()));

    rows.push_back({size.name, FormatQ(1e6 * tape_run.seconds_per_pass),
                    FormatQ(1e6 * eval_run.seconds_per_pass),
                    FormatQ(speedup),
                    std::to_string(tape_run.allocs_per_pass),
                    std::to_string(eval_run.allocs_per_pass),
                    std::to_string(steady_grows)});
  }

  PrintTable({"model", "tape us/pass", "eval us/pass", "speedup",
              "tape allocs", "eval allocs", "arena grows"},
             rows);
  std::printf("passes per backend: %zu (latency informational; gates are "
              "agreement + allocations)\n",
              passes);
  if (failed) {
    std::fprintf(stderr, "FAIL: backend differential gates violated\n");
    return 1;
  }
  std::printf("all gates passed: bit agreement, zero steady-state arena "
              "growth, reduced allocations\n");
  return 0;
}
