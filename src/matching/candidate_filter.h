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
  /// Weaken every check to be sound for *homomorphisms* (non-injective
  /// mappings): neighbor-label containment becomes set containment, the
  /// degree test is dropped, and global refinement (which requires
  /// distinct neighbor images) is skipped.
  bool homomorphism_safe = false;
};

/// Computes candidate sets for every query vertex:
///
/// 1. Local pruning: v is a candidate of u iff it has u's label, at least
///    u's degree, and the sorted labels of u's direct neighbours are a
///    sub-multiset of v's (the radius-1 profile the paper analyzes). The
///    profiles are Graph::NeighborLabels, which each graph builds once, so
///    no per-query profile is computed.
/// 2. Global refinement: for v in CS(u), build the bipartite graph between
///    N(u) and N(v) with an edge (u', v') iff v' in CS(u'), and drop v if no
///    matching saturates N(u). Repeated for `refinement_rounds` sweeps, in
///    query-vertex order, each test seeing the removals made before it. One
///    bipartite graph and matching scratch are reused for every pair.
Result<CandidateSets> ComputeCandidateSets(
    const Graph& query, const Graph& data,
    const CandidateFilterOptions& options = {});

}  // namespace neursc

#endif  // NEURSC_MATCHING_CANDIDATE_FILTER_H_
