#ifndef NEURSC_MATCHING_ENUMERATION_H_
#define NEURSC_MATCHING_ENUMERATION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "graph/graph.h"
#include "matching/candidate_filter.h"

namespace neursc {

/// Limits for exact enumeration.
struct EnumerationOptions {
  /// Wall-clock budget per query; <= 0 means unlimited. Mirrors the paper's
  /// 30-minute ground-truth cutoff (scaled down for in-harness use).
  double time_limit_seconds = 0.0;
  /// Stop once this many matches were counted; 0 means unlimited.
  uint64_t max_matches = 0;
  /// Collect up to this many full embeddings (query-vertex -> data-vertex
  /// maps); 0 collects none. Used by the "perfect substructure" ablation.
  size_t collect_embeddings = 0;
};

/// Output of exact enumeration.
struct CountResult {
  /// Number of subgraph isomorphisms found (distinct injective mappings).
  uint64_t count = 0;
  /// True iff the search ran to completion (neither budget tripped).
  bool exact = true;
  /// Number of recursive search calls (work measure).
  uint64_t recursive_calls = 0;
  double elapsed_seconds = 0.0;
  /// Collected embeddings; embedding[i][u] is the data vertex matched to
  /// query vertex u. At most options.collect_embeddings entries.
  std::vector<std::vector<VertexId>> embeddings;
};

/// Counts subgraph isomorphisms from `query` into `data` by backtracking
/// over GraphQL-filtered candidate sets (default CandidateFilterOptions)
/// with a connectivity-aware matching order. Definition 1 semantics:
/// injective, label-preserving, edge-preserving mappings; automorphic
/// images are counted separately.
Result<CountResult> CountSubgraphIsomorphisms(
    const Graph& query, const Graph& data,
    const EnumerationOptions& options = {});

/// Same, but reuses candidate sets the caller already computed.
Result<CountResult> CountSubgraphIsomorphismsWithCandidates(
    const Graph& query, const Graph& data, const CandidateSets& candidates,
    const EnumerationOptions& options = {});

}  // namespace neursc

#endif  // NEURSC_MATCHING_ENUMERATION_H_
