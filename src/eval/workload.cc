#include "eval/workload.h"

#include <algorithm>
#include <numeric>
#include <set>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "eval/metrics.h"
#include "graph/query_generator.h"
#include "matching/enumeration.h"

namespace neursc {

std::vector<size_t> Workload::IndicesOfSize(size_t size) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == size) out.push_back(i);
  }
  return out;
}

Result<Workload> BuildWorkload(const Graph& data,
                               const std::vector<size_t>& sizes,
                               size_t per_size,
                               const WorkloadOptions& options) {
  NEURSC_SPAN(workload_span, "workload/build");
  Workload workload;
  uint64_t seed = options.seed;
  for (size_t size : sizes) {
    QueryGeneratorConfig qconfig;
    qconfig.query_size = size;
    qconfig.edge_keep_probability = options.edge_keep_probability;
    qconfig.seed = seed++;
    QueryGenerator generator(data, qconfig);

    // Query generation is cheap and sequential (one RNG stream); exact
    // counting dominates and parallelizes per query. Candidates are
    // over-generated, counted in parallel, then accepted in generation
    // order so the result is deterministic regardless of thread timing.
    const size_t batch = per_size + per_size / 2 + 4;
    size_t accepted = 0;
    size_t rounds = 0;
    while (accepted < per_size && rounds < 14) {
      ++rounds;
      std::vector<Graph> candidates;
      candidates.reserve(batch);
      for (size_t i = 0; i < batch; ++i) {
        auto query = generator.Generate();
        if (query.ok()) candidates.push_back(std::move(query).value());
      }
      if (candidates.empty()) continue;
      std::vector<double> counts(candidates.size(), -1.0);
      ParallelFor(candidates.size(), [&](size_t i) {
        NEURSC_SPAN(ground_truth_span, "workload/ground_truth");
        EnumerationOptions eopts;
        eopts.time_limit_seconds = options.ground_truth_time_limit;
        auto count = CountSubgraphIsomorphisms(candidates[i], data, eopts);
        if (count.ok() && count->exact) {
          counts[i] = static_cast<double>(count->count);
        }
      });
      for (size_t i = 0; i < candidates.size() && accepted < per_size;
           ++i) {
        if (counts[i] < 0.0) continue;
        workload.sizes.push_back(size);
        workload.examples.push_back(
            TrainingExample{std::move(candidates[i]), counts[i]});
        ++accepted;
      }
    }
    if (accepted < per_size) {
      NEURSC_LOG(Warning) << "workload size " << size << ": only " << accepted
                          << "/" << per_size << " queries within budget";
    }

    // Optional zero-count queries: relabel vertices of fresh extractions
    // with random labels until the exact count drops to 0.
    if (options.unmatchable_fraction > 0.0) {
      size_t want = static_cast<size_t>(options.unmatchable_fraction *
                                        static_cast<double>(per_size));
      Rng relabel_rng(options.seed + 7777 + size);
      size_t made = 0;
      size_t tries = 0;
      while (made < want && tries < 30 * want + 30) {
        ++tries;
        auto query = generator.Generate();
        if (!query.ok()) continue;
        GraphBuilder builder;
        for (size_t v = 0; v < query->NumVertices(); ++v) {
          builder.AddVertex(static_cast<Label>(
              relabel_rng.UniformIndex(std::max<size_t>(
                  data.NumLabels(), 1))));
        }
        for (size_t v = 0; v < query->NumVertices(); ++v) {
          for (VertexId w : query->Neighbors(static_cast<VertexId>(v))) {
            if (v < w) {
              (void)builder.AddEdge(static_cast<VertexId>(v), w);
            }
          }
        }
        auto relabeled = builder.Build();
        if (!relabeled.ok()) continue;
        EnumerationOptions eopts;
        eopts.time_limit_seconds = options.ground_truth_time_limit;
        eopts.max_matches = 1;
        auto count = CountSubgraphIsomorphisms(*relabeled, data, eopts);
        if (!count.ok() || count->count != 0) continue;
        workload.sizes.push_back(size);
        workload.examples.push_back(
            TrainingExample{std::move(relabeled).value(), 0.0});
        ++made;
      }
    }
  }
  if (workload.examples.empty()) {
    return Status::ResourceExhausted("no queries fit the ground-truth budget");
  }
  return workload;
}

WorkloadSplit SplitWorkload(const Workload& workload, double train_fraction,
                            uint64_t seed) {
  std::vector<size_t> indices(workload.examples.size());
  std::iota(indices.begin(), indices.end(), 0);
  Rng rng(seed);
  rng.Shuffle(&indices);
  size_t train_count = static_cast<size_t>(
      train_fraction * static_cast<double>(indices.size()));
  train_count = std::min(train_count, indices.size());
  WorkloadSplit split;
  split.train.assign(indices.begin(), indices.begin() + train_count);
  split.test.assign(indices.begin() + train_count, indices.end());
  return split;
}

WorkloadSplit StratifiedSplit(const Workload& workload,
                              double train_fraction, uint64_t seed) {
  std::set<size_t> distinct(workload.sizes.begin(), workload.sizes.end());
  Rng rng(seed);
  WorkloadSplit split;
  for (size_t size : distinct) {
    auto indices = workload.IndicesOfSize(size);
    rng.Shuffle(&indices);
    size_t train_count = static_cast<size_t>(
        train_fraction * static_cast<double>(indices.size()));
    train_count = std::min(train_count, indices.size());
    split.train.insert(split.train.end(), indices.begin(),
                       indices.begin() + train_count);
    split.test.insert(split.test.end(), indices.begin() + train_count,
                      indices.end());
  }
  return split;
}

std::vector<TrainingExample> Gather(const Workload& workload,
                                    const std::vector<size_t>& indices) {
  std::vector<TrainingExample> out;
  out.reserve(indices.size());
  for (size_t i : indices) out.push_back(workload.examples[i]);
  return out;
}

Result<BatchEvaluation> EvaluateBatch(NeurSCEstimator* estimator,
                                      const Workload& workload,
                                      const std::vector<size_t>& indices) {
  NEURSC_SPAN(eval_span, "workload/evaluate_batch");
  std::vector<Graph> queries;
  queries.reserve(indices.size());
  for (size_t i : indices) queries.push_back(workload.examples[i].query);
  auto infos = estimator->EstimateBatch(queries);
  if (!infos.ok()) return infos.status();
  eval_span.End();
  BatchEvaluation result;
  result.infos = std::move(infos).value();
  result.batch_seconds = eval_span.ElapsedSeconds();
  result.signed_qerrors.reserve(indices.size());
  for (size_t k = 0; k < indices.size(); ++k) {
    result.signed_qerrors.push_back(SignedQError(
        result.infos[k].count, workload.examples[indices[k]].count));
  }
  return result;
}

}  // namespace neursc
