#ifndef NEURSC_MATCHING_SUBSTRUCTURE_H_
#define NEURSC_MATCHING_SUBSTRUCTURE_H_

#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "matching/candidate_filter.h"

namespace neursc {

/// One connected candidate substructure G_sub^{(i)} (Sec. 4), carrying the
/// mapping back to the data graph and the candidate sets restricted to it —
/// WEst's inter-graph bipartite network and the Wasserstein discriminator
/// both need per-query-vertex candidates in local ids.
struct Substructure {
  Graph graph;
  /// original_id[i] is the data-graph id of local vertex i.
  std::vector<VertexId> original_id;
  /// local_candidates[u] lists the local vertex ids of CS(u) members that
  /// fall inside this substructure (sorted).
  std::vector<std::vector<VertexId>> local_candidates;
};

/// Observability counters filled during extraction (how hard the filter
/// worked and how fragmented the candidate region is).
struct ExtractionStats {
  /// |union of all CS(u)|.
  size_t candidate_union_size = 0;
  /// sum over u of |CS(u)|.
  size_t total_candidates = 0;
  /// Connected components of the candidate-induced subgraph.
  size_t components_total = 0;
  /// Components surviving the size check (== substructures.size()).
  size_t components_kept = 0;
  size_t largest_substructure_vertices = 0;
};

/// Result of the extraction module (Sec. 4 / Alg. 1 lines 1-7).
struct ExtractionResult {
  /// True iff estimation can terminate early with count 0: some CS(u) was
  /// empty or |union CS| < |V(q)|.
  bool early_terminate = false;
  /// Connected substructures that survived the size check (components
  /// smaller than the query in vertices or edges are skipped, before they
  /// are built, since a query cannot embed into a smaller graph). Ordered
  /// by smallest data-graph id; each lists its vertices in ascending
  /// data-graph order.
  std::vector<Substructure> substructures;
  ExtractionStats stats;
};

/// Runs candidate filtering, then splits the subgraph induced by the
/// candidate union into connected substructures in one traversal of
/// `data`.
Result<ExtractionResult> ExtractSubstructures(
    const Graph& query, const Graph& data,
    const CandidateFilterOptions& filter_options = {});

/// Builds substructures from an explicit candidate-vertex universe (used by
/// the "perfect substructure" ablation, where the universe is the set of
/// data vertices appearing in ground-truth embeddings). `candidates` must
/// be positioned on the same data graph: one sorted set per query vertex.
/// Returns InvalidArgument for a universe vertex or candidate outside
/// `data`, or a malformed `candidates`.
Result<ExtractionResult> BuildSubstructuresFromVertices(
    const Graph& query, const Graph& data,
    const std::vector<VertexId>& universe, const CandidateSets& candidates);

}  // namespace neursc

#endif  // NEURSC_MATCHING_SUBSTRUCTURE_H_
