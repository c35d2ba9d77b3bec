#ifndef NEURSC_CORE_OPTIMAL_TRANSPORT_H_
#define NEURSC_CORE_OPTIMAL_TRANSPORT_H_

#include <vector>

#include "core/discriminator.h"
#include "nn/matrix.h"

namespace neursc {

/// Exact assignment-based optimal transport, used as the reference the
/// paper argues is unnecessary (Sec. 5.5: "it is not necessary to compute
/// the exact optimal transport due to its extra time cost and limited
/// improvement"). bench/bench_ablations and the tests compare WEst's
/// candidate-guided greedy correspondence against this exact solver.

/// Solves min-cost assignment on an n x m cost matrix (n <= m): every row
/// is assigned to a distinct column minimizing the total cost. Returns the
/// column per row. O(n^2 m) Hungarian (Jonker-Volgenant style potentials).
std::vector<size_t> SolveAssignment(const Matrix& cost);

/// Total cost of an assignment under `cost`.
double AssignmentCost(const Matrix& cost,
                      const std::vector<size_t>& assignment);

/// Correspondence built from the exact optimal transport plan between
/// query and substructure representations, restricted to candidate sets by
/// masking non-candidate pairs with a large cost. The "exact OT" upper
/// baseline for SelectCorrespondenceByScores.
Correspondence SelectCorrespondenceByExactOt(
    const Matrix& query_repr, const Matrix& sub_repr,
    const std::vector<std::vector<VertexId>>& candidates);

}  // namespace neursc

#endif  // NEURSC_CORE_OPTIMAL_TRANSPORT_H_
