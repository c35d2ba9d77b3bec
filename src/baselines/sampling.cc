#include "baselines/sampling.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/timer.h"
#include "matching/enumeration.h"

namespace neursc {

VertexId MaxDegreeVertex(const Graph& query) {
  VertexId best = 0;
  for (size_t u = 1; u < query.NumVertices(); ++u) {
    if (query.Degree(static_cast<VertexId>(u)) > query.Degree(best)) {
      best = static_cast<VertexId>(u);
    }
  }
  return best;
}

std::vector<VertexId> ConnectedQueryOrder(const Graph& query,
                                          VertexId start) {
  const size_t nq = query.NumVertices();
  std::vector<VertexId> order;
  std::vector<bool> placed(nq, false);
  order.push_back(start);
  placed[start] = true;
  while (order.size() < nq) {
    VertexId next = kInvalidVertex;
    for (size_t u = 0; u < nq; ++u) {
      if (placed[u]) continue;
      for (VertexId w : query.Neighbors(static_cast<VertexId>(u))) {
        if (placed[w]) {
          next = static_cast<VertexId>(u);
          break;
        }
      }
      if (next != kInvalidVertex) break;
    }
    if (next == kInvalidVertex) {
      for (size_t u = 0; u < nq; ++u) {
        if (!placed[u]) {
          next = static_cast<VertexId>(u);
          break;
        }
      }
    }
    placed[next] = true;
    order.push_back(next);
  }
  return order;
}

namespace {

/// Splitmix-style hash for correlated vertex sampling.
uint64_t HashVertex(uint64_t v, uint64_t seed) {
  uint64_t x = v + seed + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

CorrelatedSamplingEstimator::CorrelatedSamplingEstimator(const Graph& data,
                                                         Options options)
    : options_(options) {
  // Deterministic hash-based vertex sample shared across queries.
  std::vector<VertexId> kept;
  const uint64_t threshold = static_cast<uint64_t>(
      options_.sample_probability * static_cast<double>(UINT64_MAX));
  for (size_t v = 0; v < data.NumVertices(); ++v) {
    if (HashVertex(v, options_.seed) <= threshold) {
      kept.push_back(static_cast<VertexId>(v));
    }
  }
  auto induced = BuildInducedSubgraph(data, kept);
  NEURSC_CHECK(induced.ok());
  sample_ = std::move(induced->graph);
}

Result<double> CorrelatedSamplingEstimator::EstimateCount(const Graph& query) {
  EnumerationOptions eopts;
  eopts.time_limit_seconds = options_.time_limit_seconds;
  auto counted = CountSubgraphIsomorphisms(query, sample_, eopts);
  if (!counted.ok()) return counted.status();
  if (!counted->exact) {
    return Status::Timeout("sample enumeration exceeded budget");
  }
  double scale = std::pow(options_.sample_probability,
                          -static_cast<double>(query.NumVertices()));
  return static_cast<double>(counted->count) * scale;
}

WanderJoinEstimator::WanderJoinEstimator(const Graph& data, Options options)
    : data_(data), options_(options), rng_(options.seed) {}

Result<double> WanderJoinEstimator::EstimateCount(const Graph& query) {
  if (query.NumVertices() < 2) {
    return Status::InvalidArgument("query too small");
  }
  Deadline deadline(options_.time_limit_seconds);
  std::vector<VertexId> order =
      ConnectedQueryOrder(query, MaxDegreeVertex(query));
  const size_t nq = query.NumVertices();

  // First query edge: (order[0], order[1]); order[1] is adjacent to
  // order[0] by construction.
  VertexId q0 = order[0];
  VertexId q1 = order[1];
  NEURSC_CHECK(query.HasEdge(q0, q1));
  Label l0 = query.GetLabel(q0);
  Label l1 = query.GetLabel(q1);

  // Candidate first edges: directed (a, b) with matching labels.
  std::vector<std::pair<VertexId, VertexId>> first_edges;
  for (VertexId a : data_.VerticesWithLabel(l0)) {
    for (VertexId b : data_.Neighbors(a)) {
      if (data_.GetLabel(b) == l1) first_edges.emplace_back(a, b);
    }
  }
  if (first_edges.empty()) return 0.0;

  double sum = 0.0;
  size_t walks_done = 0;
  std::vector<VertexId> mapping(nq, kInvalidVertex);
  for (size_t walk = 0; walk < options_.num_walks; ++walk) {
    if (deadline.Expired()) break;
    ++walks_done;
    std::fill(mapping.begin(), mapping.end(), kInvalidVertex);
    auto [a, b] = first_edges[rng_.UniformIndex(first_edges.size())];
    if (a == b) continue;
    mapping[q0] = a;
    mapping[q1] = b;
    double weight = static_cast<double>(first_edges.size());
    bool alive = true;
    for (size_t depth = 2; depth < nq && alive; ++depth) {
      VertexId u = order[depth];
      Label lu = query.GetLabel(u);
      // Anchor: an already-mapped query neighbor of u.
      VertexId anchor = kInvalidVertex;
      for (VertexId w : query.Neighbors(u)) {
        if (mapping[w] != kInvalidVertex) {
          anchor = w;
          break;
        }
      }
      NEURSC_CHECK(anchor != kInvalidVertex);
      // Sample among label-matching neighbors of the anchor's image; other
      // constraints are verified after the draw (pure WanderJoin).
      std::vector<VertexId> extensions;
      for (VertexId v : data_.Neighbors(mapping[anchor])) {
        if (data_.GetLabel(v) == lu) extensions.push_back(v);
      }
      if (extensions.empty()) {
        alive = false;
        break;
      }
      VertexId chosen = extensions[rng_.UniformIndex(extensions.size())];
      weight *= static_cast<double>(extensions.size());
      // Injectivity.
      for (size_t d = 0; d < depth; ++d) {
        if (mapping[order[d]] == chosen) {
          alive = false;
          break;
        }
      }
      if (!alive) break;
      // All other query edges from u to mapped vertices must exist.
      for (VertexId w : query.Neighbors(u)) {
        if (w == anchor || mapping[w] == kInvalidVertex) continue;
        if (!data_.HasEdge(chosen, mapping[w])) {
          alive = false;
          break;
        }
      }
      if (alive) mapping[u] = chosen;
    }
    if (alive) sum += weight;
  }
  if (walks_done == 0) return Status::Timeout("no walks within budget");
  return sum / static_cast<double>(walks_done);
}

JsubEstimator::JsubEstimator(const Graph& data, Options options)
    : data_(data), options_(options), rng_(options.seed) {}

Result<double> JsubEstimator::EstimateCount(const Graph& query) {
  if (query.NumVertices() < 1) {
    return Status::InvalidArgument("empty query");
  }
  Deadline deadline(options_.time_limit_seconds);
  std::vector<VertexId> order =
      ConnectedQueryOrder(query, MaxDegreeVertex(query));
  const size_t nq = query.NumVertices();

  VertexId root = order[0];
  auto root_candidates = data_.VerticesWithLabel(query.GetLabel(root));
  std::vector<VertexId> roots;
  for (VertexId v : root_candidates) {
    if (data_.Degree(v) >= query.Degree(root)) roots.push_back(v);
  }
  if (roots.empty()) return 0.0;

  double sum = 0.0;
  size_t walks_done = 0;
  std::vector<VertexId> mapping(nq, kInvalidVertex);
  std::vector<VertexId> extensions;
  for (size_t walk = 0; walk < options_.num_walks; ++walk) {
    if (deadline.Expired()) break;
    ++walks_done;
    std::fill(mapping.begin(), mapping.end(), kInvalidVertex);
    mapping[root] = roots[rng_.UniformIndex(roots.size())];
    double weight = static_cast<double>(roots.size());
    bool alive = true;
    for (size_t depth = 1; depth < nq && alive; ++depth) {
      VertexId u = order[depth];
      Label lu = query.GetLabel(u);
      VertexId anchor = kInvalidVertex;
      for (VertexId w : query.Neighbors(u)) {
        if (mapping[w] != kInvalidVertex) {
          anchor = w;
          break;
        }
      }
      NEURSC_CHECK(anchor != kInvalidVertex);
      // Fully validated extension set: label, adjacency to *all* mapped
      // neighbors, injectivity.
      extensions.clear();
      for (VertexId v : data_.Neighbors(mapping[anchor])) {
        if (data_.GetLabel(v) != lu) continue;
        bool ok = true;
        for (size_t d = 0; d < depth; ++d) {
          if (mapping[order[d]] == v) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        for (VertexId w : query.Neighbors(u)) {
          if (w == anchor || mapping[w] == kInvalidVertex) continue;
          if (!data_.HasEdge(v, mapping[w])) {
            ok = false;
            break;
          }
        }
        if (ok) extensions.push_back(v);
      }
      if (extensions.empty()) {
        alive = false;
        break;
      }
      mapping[u] = extensions[rng_.UniformIndex(extensions.size())];
      weight *= static_cast<double>(extensions.size());
    }
    if (alive) sum += weight;
  }
  if (walks_done == 0) return Status::Timeout("no walks within budget");
  return sum / static_cast<double>(walks_done);
}

}  // namespace neursc
