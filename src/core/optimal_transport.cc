#include "core/optimal_transport.h"

#include <cmath>
#include <limits>

#include "common/logging.h"

namespace neursc {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::vector<size_t> SolveAssignment(const Matrix& cost) {
  const size_t n = cost.rows();
  const size_t m = cost.cols();
  NEURSC_CHECK(n <= m) << "assignment needs rows <= cols";

  // Jonker-Volgenant / Hungarian with potentials, 1-indexed scratch
  // arrays. p[j] holds the row assigned to column j (0 = none).
  std::vector<double> u(n + 1, 0.0);
  std::vector<double> v(m + 1, 0.0);
  std::vector<size_t> p(m + 1, 0);
  std::vector<size_t> way(m + 1, 0);

  for (size_t i = 1; i <= n; ++i) {
    p[0] = i;
    size_t j0 = 0;
    std::vector<double> minv(m + 1, kInf);
    std::vector<bool> used(m + 1, false);
    do {
      used[j0] = true;
      size_t i0 = p[j0];
      double delta = kInf;
      size_t j1 = 0;
      for (size_t j = 1; j <= m; ++j) {
        if (used[j]) continue;
        double cur = cost.at(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (size_t j = 0; j <= m; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    // Augment along the alternating path.
    do {
      size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  std::vector<size_t> assignment(n, 0);
  for (size_t j = 1; j <= m; ++j) {
    if (p[j] != 0) assignment[p[j] - 1] = j - 1;
  }
  return assignment;
}

double AssignmentCost(const Matrix& cost,
                      const std::vector<size_t>& assignment) {
  double total = 0.0;
  for (size_t i = 0; i < assignment.size(); ++i) {
    total += cost.at(i, assignment[i]);
  }
  return total;
}

Correspondence SelectCorrespondenceByExactOt(
    const Matrix& query_repr, const Matrix& sub_repr,
    const std::vector<std::vector<VertexId>>& candidates) {
  const size_t nq = query_repr.rows();
  const size_t ns = sub_repr.rows();
  Correspondence pairs;
  if (nq == 0 || ns == 0 || nq > ns) return pairs;

  // Large-but-finite penalty keeps the problem feasible even when a
  // query vertex has no candidate inside this substructure.
  const float kPenalty = 1e6f;
  Matrix cost(nq, ns, kPenalty);
  for (size_t u = 0; u < nq && u < candidates.size(); ++u) {
    for (VertexId v : candidates[u]) {
      double s = 0.0;
      for (size_t c = 0; c < query_repr.cols(); ++c) {
        double d = static_cast<double>(query_repr.at(u, c)) -
                   sub_repr.at(v, c);
        s += d * d;
      }
      cost.at(u, v) = static_cast<float>(std::sqrt(s));
    }
  }
  auto assignment = SolveAssignment(cost);
  for (size_t u = 0; u < nq; ++u) {
    if (cost.at(u, assignment[u]) >= kPenalty) continue;  // no candidate
    pairs.query_rows.push_back(static_cast<uint32_t>(u));
    pairs.sub_rows.push_back(static_cast<uint32_t>(assignment[u]));
  }
  return pairs;
}

}  // namespace neursc
