#ifndef NEURSC_MATCHING_CANDIDATE_FILTER_H_
#define NEURSC_MATCHING_CANDIDATE_FILTER_H_

#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace neursc {

/// Per-query-vertex candidate sets: candidates[u] is the sorted list of data
/// vertices that may match query vertex u (a superset of the vertices that
/// appear in any embedding — Definition 2's complete candidate set).
struct CandidateSets {
  std::vector<std::vector<VertexId>> candidates;

  /// True iff some query vertex has no candidates (query count is 0).
  bool AnyEmpty() const;

  /// |union of all CS(u)|.
  size_t UnionSize() const;

  /// Sorted union of all CS(u).
  std::vector<VertexId> Union() const;

  /// Total candidate count summed over query vertices.
  size_t TotalSize() const;
};

/// Options for GraphQL-style candidate generation (the method the paper
/// adopts for its extraction module; shown in [89] to have the strongest
/// pruning power).
struct CandidateFilterOptions {
  /// Number of global-refinement sweeps (each sweep re-checks every
  /// candidate pair with the semi-perfect-matching test). 0 keeps the
  /// local-pruning result unrefined.
  int refinement_rounds = 2;
};

/// Computes candidate sets for every query vertex:
///
/// 1. Local pruning: v is a candidate of u iff it has u's label, at least
///    u's degree, and the sorted labels of u's direct neighbours are a
///    sub-multiset of v's (the radius-1 profile the paper analyzes). The
///    profiles are Graph::NeighborLabels, which each graph builds once, so
///    no per-query profile is computed. Before the profiles are merged, v
///    is rejected if its neighbour-label signature (Graph::LabelSignature,
///    one bit per label mod 64) misses a bit of u's. That is a necessary
///    condition of the sub-multiset test, so it changes no candidate set;
///    the vertices it rejects are counted in `filter.signature_rejects`.
/// 2. Global refinement: for v in CS(u), build the bipartite graph between
///    N(u) and N(v) with an edge (u', v') iff v' in CS(u'), and drop v if no
///    matching saturates N(u). Repeated for `refinement_rounds` sweeps, in
///    query-vertex order, each test seeing the removals made before it; a
///    sweep that removes nothing ends refinement. The result is that of
///    re-testing every pair in every sweep, but refinement is incremental:
///    a pair is re-tested only if its bipartite graph lost an edge since it
///    last passed, which happens exactly when some w in N(v) left CS(u')
///    for some u' in N(u). Each removal marks those pairs. The test stores
///    the bipartite graph as one bit row of ceil(deg(v)/64) words per u',
///    read off the membership bitmap below, and rejects v as soon as a row
///    is empty; otherwise, with two or more query neighbours, it searches
///    augmenting paths over the rows with word operations
///    (SemiPerfectMatcher, matching/bipartite_matching.h). The tests that
///    ran are counted in `filter.pair_tests`; the removals, their order,
///    `filter.refine_rounds` and `filter.candidates_refined` are those of
///    the full re-test. Refinement stops as soon as some CS(u) is empty,
///    in the middle of a sweep or before the first when local pruning
///    emptied one: the query has no embedding, and the other sets stay as
///    the tests so far left them.
///
/// Memory: the membership bitmap (|V(q)| rows of ceil(|V(G)|/64) words) and
/// the matcher's rows are per-thread scratch; a call clears the bitmap
/// before returning, so a query fills nothing of size |V(G)|
/// (docs/threading.md).
Result<CandidateSets> ComputeCandidateSets(
    const Graph& query, const Graph& data,
    const CandidateFilterOptions& options = {});

}  // namespace neursc

#endif  // NEURSC_MATCHING_CANDIDATE_FILTER_H_
