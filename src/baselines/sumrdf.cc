#include "baselines/sumrdf.h"

#include <algorithm>
#include <cmath>

#include "baselines/sampling.h"
#include "common/timer.h"

namespace neursc {

SumRdfEstimator::SumRdfEstimator(const Graph& data, Options options)
    : data_(data), options_(options) {
  const size_t num_labels = data.NumLabels();
  vertex_bucket_.resize(data.NumVertices());
  buckets_of_label_.resize(num_labels);

  // Bucket vertices of each label by degree quantile.
  for (size_t l = 0; l < num_labels; ++l) {
    auto members = data.VerticesWithLabel(static_cast<Label>(l));
    if (members.empty()) continue;
    std::vector<VertexId> sorted(members.begin(), members.end());
    std::sort(sorted.begin(), sorted.end(), [&](VertexId a, VertexId b) {
      return data.Degree(a) < data.Degree(b);
    });
    size_t buckets =
        std::min<size_t>(options_.buckets_per_label, sorted.size());
    for (size_t i = 0; i < sorted.size(); ++i) {
      size_t local = i * buckets / sorted.size();
      if (local >= buckets) local = buckets - 1;
      // Bucket ids assigned lazily below.
      size_t needed = local + 1;
      while (buckets_of_label_[l].size() < needed) {
        uint32_t id = static_cast<uint32_t>(bucket_size_.size());
        buckets_of_label_[l].push_back(id);
        bucket_size_.push_back(0.0);
        bucket_label_.push_back(static_cast<Label>(l));
      }
      uint32_t bucket = buckets_of_label_[l][local];
      vertex_bucket_[sorted[i]] = bucket;
      bucket_size_[bucket] += 1.0;
    }
  }

  const size_t nb = bucket_size_.size();
  for (size_t v = 0; v < data.NumVertices(); ++v) {
    uint32_t bv = vertex_bucket_[v];
    for (VertexId w : data.Neighbors(static_cast<VertexId>(v))) {
      uint32_t bw = vertex_bucket_[w];
      summary_edges_[static_cast<uint64_t>(bv) * nb + bw] += 1.0;
    }
  }
}

Result<double> SumRdfEstimator::EstimateCount(const Graph& query) {
  if (query.NumVertices() == 0) {
    return Status::InvalidArgument("empty query");
  }
  const size_t nq = query.NumVertices();
  const size_t nb = bucket_size_.size();
  Deadline deadline(options_.time_limit_seconds);

  // Backtracking over bucket assignments; order query vertices so each new
  // vertex (after the first) touches an assigned neighbor, letting us prune
  // by summary-edge weight as we go.
  const std::vector<VertexId> order = ConnectedQueryOrder(query, 0);

  std::vector<uint32_t> assignment(nq, 0);
  double total = 0.0;
  bool timed_out = false;
  uint64_t steps = 0;

  // Recursive enumeration of label-consistent bucket assignments.
  auto recurse = [&](auto&& self, size_t depth, double partial) -> void {
    if (timed_out) return;
    if (((++steps) & 255u) == 0 && deadline.Expired()) {
      timed_out = true;
      return;
    }
    if (depth == nq) {
      total += partial;
      return;
    }
    VertexId u = order[depth];
    Label lu = query.GetLabel(u);
    if (lu >= buckets_of_label_.size()) return;
    for (uint32_t bucket : buckets_of_label_[lu]) {
      double factor = bucket_size_[bucket];
      bool feasible = factor > 0.0;
      if (!feasible) continue;
      for (VertexId w : query.Neighbors(u)) {
        // Only edges to already-assigned vertices contribute here; each
        // query edge is applied exactly once (when its second endpoint is
        // placed).
        bool w_assigned = false;
        for (size_t d = 0; d < depth; ++d) {
          if (order[d] == w) {
            w_assigned = true;
            break;
          }
        }
        if (!w_assigned) continue;
        uint32_t bw = assignment[w];
        auto it = summary_edges_.find(static_cast<uint64_t>(bucket) * nb + bw);
        double weight = (it == summary_edges_.end()) ? 0.0 : it->second;
        if (weight <= 0.0) {
          feasible = false;
          break;
        }
        factor *= weight / (bucket_size_[bucket] * bucket_size_[bw]);
      }
      if (!feasible) continue;
      assignment[u] = bucket;
      self(self, depth + 1, partial * factor);
      if (timed_out) return;
    }
  };
  recurse(recurse, 0, 1.0);

  if (timed_out) {
    return Status::Timeout("summary enumeration exceeded budget");
  }
  return total;
}

}  // namespace neursc
