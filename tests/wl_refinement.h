#ifndef NEURSC_TESTS_WL_REFINEMENT_H_
#define NEURSC_TESTS_WL_REFINEMENT_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace neursc {

/// 1-dimensional Weisfeiler-Lehman color refinement (Sec. 5.7 of the
/// paper). Colors start from vertex labels and are refined by hashing each
/// vertex's color together with the multiset of its neighbors' colors.
///
/// Returns the stable coloring after at most `max_rounds` rounds (0 means
/// run to convergence). Colors are canonicalized (dense ids assigned in
/// order of first appearance over sorted color signatures) so two
/// isomorphic graphs receive identical color multisets.
std::vector<uint32_t> WlColors(const Graph& g, int max_rounds = 0);

/// The sorted color histogram (multiset) of WlColors run jointly on both
/// graphs — the 1-WL graph invariant.
struct WlSignature {
  std::vector<uint64_t> histogram;  // sorted color ids w/ multiplicity
  bool operator==(const WlSignature&) const = default;
};

/// Runs 1-WL on the disjoint union of g1 and g2 (shared color space) and
/// returns each graph's signature. If the signatures differ, the graphs
/// are certainly non-isomorphic ("1-WL distinguishes them").
std::pair<WlSignature, WlSignature> JointWlSignatures(const Graph& g1,
                                                      const Graph& g2,
                                                      int max_rounds = 0);

/// True iff 1-WL distinguishes g1 and g2 within `max_rounds` rounds.
bool WlDistinguishes(const Graph& g1, const Graph& g2, int max_rounds = 0);

}  // namespace neursc

#endif  // NEURSC_TESTS_WL_REFINEMENT_H_
