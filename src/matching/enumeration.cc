#include "matching/enumeration.h"

#include <algorithm>
#include <limits>

namespace neursc {

namespace {

/// Builds a connectivity-aware matching order: start at the query vertex
/// with the smallest candidate set, then repeatedly append the unmatched
/// vertex with the most already-ordered neighbors (ties: smaller candidate
/// set, then higher degree). This is the GraphQL-style "candidate-size
/// first, connected" ordering.
std::vector<VertexId> BuildMatchingOrder(const Graph& query,
                                         const CandidateSets& candidates) {
  const size_t nq = query.NumVertices();
  std::vector<bool> ordered(nq, false);
  std::vector<VertexId> order;
  order.reserve(nq);

  size_t start = 0;
  for (size_t u = 1; u < nq; ++u) {
    if (candidates.candidates[u].size() <
        candidates.candidates[start].size()) {
      start = u;
    }
  }
  order.push_back(static_cast<VertexId>(start));
  ordered[start] = true;

  while (order.size() < nq) {
    size_t best = nq;
    size_t best_connected = 0;
    size_t best_cs = std::numeric_limits<size_t>::max();
    uint32_t best_degree = 0;
    for (size_t u = 0; u < nq; ++u) {
      if (ordered[u]) continue;
      size_t connected = 0;
      for (VertexId w : query.Neighbors(static_cast<VertexId>(u))) {
        if (ordered[w]) ++connected;
      }
      size_t cs = candidates.candidates[u].size();
      uint32_t degree = query.Degree(static_cast<VertexId>(u));
      bool better = false;
      if (best == nq) {
        better = true;
      } else if (connected != best_connected) {
        better = connected > best_connected;
      } else if (cs != best_cs) {
        better = cs < best_cs;
      } else {
        better = degree > best_degree;
      }
      if (better) {
        best = u;
        best_connected = connected;
        best_cs = cs;
        best_degree = degree;
      }
    }
    order.push_back(static_cast<VertexId>(best));
    ordered[best] = true;
  }
  return order;
}

/// Backtracking search state.
class Enumerator {
 public:
  Enumerator(const Graph& query, const Graph& data,
             const CandidateSets& candidates,
             const EnumerationOptions& options)
      : query_(query),
        data_(data),
        candidates_(candidates),
        options_(options),
        deadline_(options.time_limit_seconds),
        order_(BuildMatchingOrder(query, candidates)),
        mapping_(query.NumVertices(), kInvalidVertex),
        used_(data.NumVertices(), false) {
    // Precompute, for each position in the order, the query neighbors that
    // are already mapped when this position is reached.
    const size_t nq = query_.NumVertices();
    std::vector<size_t> position(nq, 0);
    for (size_t i = 0; i < nq; ++i) position[order_[i]] = i;
    mapped_neighbors_.resize(nq);
    for (size_t i = 0; i < nq; ++i) {
      VertexId u = order_[i];
      for (VertexId w : query_.Neighbors(u)) {
        if (position[w] < i) mapped_neighbors_[i].push_back(w);
      }
    }
  }

  CountResult Run() {
    Timer timer;
    Search(0);
    result_.elapsed_seconds = timer.ElapsedSeconds();
    return std::move(result_);
  }

 private:
  bool BudgetTripped() {
    if (options_.max_matches > 0 && result_.count >= options_.max_matches) {
      result_.exact = false;
      return true;
    }
    // Check the clock on the first call and every 1024 thereafter to keep
    // the hot loop cheap.
    if ((result_.recursive_calls & 1023u) == 1 && deadline_.Expired()) {
      result_.exact = false;
      return true;
    }
    return false;
  }

  void Search(size_t depth) {
    ++result_.recursive_calls;
    if (BudgetTripped()) return;
    if (depth == query_.NumVertices()) {
      ++result_.count;
      if (result_.embeddings.size() < options_.collect_embeddings) {
        result_.embeddings.push_back(mapping_);
      }
      return;
    }
    VertexId u = order_[depth];
    for (VertexId v : candidates_.candidates[u]) {
      if (used_[v]) continue;
      bool consistent = true;
      for (VertexId w : mapped_neighbors_[depth]) {
        if (!data_.HasEdge(v, mapping_[w])) {
          consistent = false;
          break;
        }
      }
      if (!consistent) continue;
      mapping_[u] = v;
      used_[v] = true;
      Search(depth + 1);
      used_[v] = false;
      mapping_[u] = kInvalidVertex;
      if (!result_.exact) return;
    }
  }

  const Graph& query_;
  const Graph& data_;
  const CandidateSets& candidates_;
  const EnumerationOptions& options_;
  Deadline deadline_;
  std::vector<VertexId> order_;
  std::vector<VertexId> mapping_;
  std::vector<bool> used_;
  std::vector<std::vector<VertexId>> mapped_neighbors_;
  CountResult result_;
};

}  // namespace

Result<CountResult> CountSubgraphIsomorphisms(
    const Graph& query, const Graph& data,
    const EnumerationOptions& options) {
  auto candidates = ComputeCandidateSets(query, data, options.filter);
  if (!candidates.ok()) return candidates.status();
  return CountSubgraphIsomorphismsWithCandidates(query, data, *candidates,
                                                 options);
}

Result<CountResult> CountSubgraphIsomorphismsWithCandidates(
    const Graph& query, const Graph& data, const CandidateSets& candidates,
    const EnumerationOptions& options) {
  if (query.NumVertices() == 0) {
    return Status::InvalidArgument("empty query graph");
  }
  if (candidates.candidates.size() != query.NumVertices()) {
    return Status::InvalidArgument("candidate sets do not match query");
  }
  if (candidates.AnyEmpty()) {
    CountResult r;
    r.count = 0;
    return r;
  }
  Enumerator enumerator(query, data, candidates, options);
  return enumerator.Run();
}

}  // namespace neursc
