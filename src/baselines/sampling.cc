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

namespace {

/// True iff mapping query vertex u to `v`, a data neighbour of
/// mapping[anchor], keeps the walk an embedding: v is no image yet
/// (unmapped entries hold kInvalidVertex, which v is not), and every other
/// query edge from u to a mapped vertex exists in the data graph.
bool Extends(const Graph& query, const Graph& data,
             const std::vector<VertexId>& mapping, VertexId u,
             VertexId anchor, VertexId v) {
  if (std::find(mapping.begin(), mapping.end(), v) != mapping.end()) {
    return false;
  }
  for (VertexId w : query.Neighbors(u)) {
    if (w == anchor || mapping[w] == kInvalidVertex) continue;
    if (!data.HasEdge(v, mapping[w])) return false;
  }
  return true;
}

/// One walk step: maps u to a label-matching data neighbour of the image of
/// u's first mapped query neighbour (the anchor; a connected query's order
/// maps one before u), drawn uniformly, and multiplies `weight` by the
/// number of choices. WanderJoin draws among all of them and checks the
/// draw with Extends() afterwards; JSUB (`validate_first`) draws only among
/// those Extends() accepts. Returns false when the walk fails.
bool WalkStep(const Graph& query, const Graph& data, VertexId u,
              bool validate_first, Rng* rng, std::vector<VertexId>* mapping,
              std::vector<VertexId>* extensions, double* weight) {
  auto neighbors = query.Neighbors(u);
  auto mapped = std::find_if(neighbors.begin(), neighbors.end(),
                             [&](VertexId w) {
                               return (*mapping)[w] != kInvalidVertex;
                             });
  NEURSC_CHECK(mapped != neighbors.end());
  const VertexId anchor = *mapped;
  extensions->clear();
  for (VertexId v : data.Neighbors((*mapping)[anchor])) {
    if (data.GetLabel(v) == query.GetLabel(u) &&
        (!validate_first || Extends(query, data, *mapping, u, anchor, v))) {
      extensions->push_back(v);
    }
  }
  if (extensions->empty()) return false;
  const VertexId chosen = (*extensions)[rng->UniformIndex(extensions->size())];
  *weight *= static_cast<double>(extensions->size());
  if (!validate_first && !Extends(query, data, *mapping, u, anchor, chosen)) {
    return false;
  }
  (*mapping)[u] = chosen;
  return true;
}

}  // namespace

WanderJoinEstimator::WanderJoinEstimator(const Graph& data, Options options)
    : data_(data), options_(options), rng_(options.seed) {}

Result<double> WanderJoinEstimator::EstimateCount(const Graph& query) {
  if (query.NumVertices() < 2) {
    return Status::InvalidArgument("query too small");
  }
  if (!query.IsConnected()) {
    return Status::InvalidArgument("query graph is not connected");
  }
  Deadline deadline(options_.time_limit_seconds);
  std::vector<VertexId> order =
      ConnectedQueryOrder(query, MaxDegreeVertex(query));
  const size_t nq = query.NumVertices();

  // First query edge: (order[0], order[1]); order[1] is adjacent to
  // order[0] because the query is connected.
  VertexId q0 = order[0];
  VertexId q1 = order[1];
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
  std::vector<VertexId> extensions;
  for (size_t walk = 0; walk < options_.num_walks; ++walk) {
    if (deadline.Expired()) break;
    ++walks_done;
    std::fill(mapping.begin(), mapping.end(), kInvalidVertex);
    auto [a, b] = first_edges[rng_.UniformIndex(first_edges.size())];
    mapping[q0] = a;
    mapping[q1] = b;
    double weight = static_cast<double>(first_edges.size());
    size_t depth = 2;
    while (depth < nq &&
           WalkStep(query, data_, order[depth], /*validate_first=*/false,
                    &rng_, &mapping, &extensions, &weight)) {
      ++depth;
    }
    if (depth == nq) sum += weight;
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
  if (!query.IsConnected()) {
    return Status::InvalidArgument("query graph is not connected");
  }
  Deadline deadline(options_.time_limit_seconds);
  std::vector<VertexId> order =
      ConnectedQueryOrder(query, MaxDegreeVertex(query));
  const size_t nq = query.NumVertices();

  VertexId root = order[0];
  std::vector<VertexId> roots;
  for (VertexId v : data_.VerticesWithLabel(query.GetLabel(root))) {
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
    size_t depth = 1;
    while (depth < nq &&
           WalkStep(query, data_, order[depth], /*validate_first=*/true,
                    &rng_, &mapping, &extensions, &weight)) {
      ++depth;
    }
    if (depth == nq) sum += weight;
  }
  if (walks_done == 0) return Status::Timeout("no walks within budget");
  return sum / static_cast<double>(walks_done);
}

}  // namespace neursc
