#include "core/discriminator.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "nn/optimizer.h"

namespace neursc {

const char* DistanceMetricName(DistanceMetric metric) {
  switch (metric) {
    case DistanceMetric::kWasserstein:
      return "Wasserstein";
    case DistanceMetric::kEuclidean:
      return "Euclidean";
    case DistanceMetric::kKL:
      return "KL";
    case DistanceMetric::kJS:
      return "JS";
  }
  return "?";
}

Discriminator::Discriminator(size_t repr_dim, size_t hidden_dim, float clip,
                             uint64_t seed)
    : clip_(clip) {
  Rng rng(seed);
  mlp_ = std::make_unique<Mlp>(
      std::vector<size_t>{repr_dim, hidden_dim, hidden_dim, 1},
      Activation::kLeakyRelu, &rng);
  // Start inside the clip box so the first update is well-conditioned.
  ClampWeights();
}

Var Discriminator::Score(Tape* tape, Var h) {
  return mlp_->Forward(tape, h);
}

void Discriminator::ClampWeights() { ClampParameters(Parameters(), clip_); }

std::vector<Parameter*> Discriminator::Parameters() {
  return mlp_->Parameters();
}

namespace {

/// Kuhn augmenting search: can query vertex `u` obtain a candidate,
/// possibly displacing earlier owners? `preference[u]` lists u's candidates
/// best-first; `owner[v]` is the query vertex currently holding v (or -1).
bool TryAssign(size_t u,
               const std::vector<std::vector<VertexId>>& preference,
               std::vector<int>* owner, std::vector<bool>* visited) {
  for (VertexId v : preference[u]) {
    if ((*visited)[v]) continue;
    (*visited)[v] = true;
    if ((*owner)[v] < 0 ||
        TryAssign(static_cast<size_t>((*owner)[v]), preference, owner,
                  visited)) {
      (*owner)[v] = static_cast<int>(u);
      return true;
    }
  }
  return false;
}

}  // namespace

Correspondence SelectCorrespondenceByScores(
    const Matrix& query_scores, const Matrix& sub_scores,
    const std::vector<std::vector<VertexId>>& candidates) {
  const size_t nq = query_scores.rows();
  NEURSC_CHECK(candidates.size() == nq);

  // Query vertices in ascending critic score (the paper starts from the
  // query vertex minimizing f_omega).
  std::vector<size_t> query_order(nq);
  std::iota(query_order.begin(), query_order.end(), 0);
  std::sort(query_order.begin(), query_order.end(), [&](size_t a, size_t b) {
    return query_scores.at(a, 0) < query_scores.at(b, 0);
  });

  // Each query vertex prefers candidates with larger critic score.
  std::vector<std::vector<VertexId>> preference(nq);
  for (size_t u = 0; u < nq; ++u) {
    preference[u] = candidates[u];
    std::sort(preference[u].begin(), preference[u].end(),
              [&](VertexId a, VertexId b) {
                return sub_scores.at(a, 0) > sub_scores.at(b, 0);
              });
  }

  std::vector<int> owner(sub_scores.rows(), -1);
  std::vector<int> assigned(nq, -1);
  for (size_t u : query_order) {
    if (preference[u].empty()) continue;
    // Greedy first: the best still-unselected candidate of u.
    bool taken = false;
    for (VertexId v : preference[u]) {
      if (owner[v] < 0) {
        owner[v] = static_cast<int>(u);
        taken = true;
        break;
      }
    }
    if (taken) continue;
    // All of CS(u) is taken: re-assign a previously selected query vertex
    // (the paper's "change the corresponding vertex" step) via an
    // augmenting path.
    std::vector<bool> visited(sub_scores.rows(), false);
    if (!TryAssign(u, preference, &owner, &visited)) {
      // No system of distinct representatives: reuse u's best candidate.
      assigned[u] = static_cast<int>(preference[u].front());
    }
  }
  for (size_t v = 0; v < owner.size(); ++v) {
    if (owner[v] >= 0) assigned[owner[v]] = static_cast<int>(v);
  }

  Correspondence pairs;
  for (size_t u = 0; u < nq; ++u) {
    if (assigned[u] < 0) continue;
    pairs.query_rows.push_back(static_cast<uint32_t>(u));
    pairs.sub_rows.push_back(static_cast<uint32_t>(assigned[u]));
  }
  return pairs;
}

double RepresentationDistance(const float* a, const float* b, size_t dim,
                              DistanceMetric metric) {
  switch (metric) {
    case DistanceMetric::kWasserstein:
    case DistanceMetric::kEuclidean: {
      double s = 0.0;
      for (size_t i = 0; i < dim; ++i) {
        double d = static_cast<double>(a[i]) - b[i];
        s += d * d;
      }
      return std::sqrt(s);
    }
    case DistanceMetric::kKL:
    case DistanceMetric::kJS: {
      // Softmax-normalize both rows, then compute the divergence.
      std::vector<double> p(dim);
      std::vector<double> q(dim);
      auto softmax = [dim](const float* x, std::vector<double>* out) {
        double mx = x[0];
        for (size_t i = 1; i < dim; ++i) mx = std::max<double>(mx, x[i]);
        double sum = 0.0;
        for (size_t i = 0; i < dim; ++i) {
          (*out)[i] = std::exp(x[i] - mx);
          sum += (*out)[i];
        }
        for (size_t i = 0; i < dim; ++i) (*out)[i] /= sum;
      };
      softmax(a, &p);
      softmax(b, &q);
      auto kl = [dim](const std::vector<double>& x,
                      const std::vector<double>& y) {
        double s = 0.0;
        for (size_t i = 0; i < dim; ++i) {
          s += x[i] * std::log(std::max(x[i], 1e-12) /
                               std::max(y[i], 1e-12));
        }
        return s;
      };
      if (metric == DistanceMetric::kKL) return kl(p, q);
      std::vector<double> m(dim);
      for (size_t i = 0; i < dim; ++i) m[i] = 0.5 * (p[i] + q[i]);
      return 0.5 * kl(p, m) + 0.5 * kl(q, m);
    }
  }
  return 0.0;
}

Correspondence SelectCorrespondenceByDistance(
    const Matrix& query_repr, const Matrix& sub_repr,
    const std::vector<std::vector<VertexId>>& candidates,
    DistanceMetric metric) {
  Correspondence pairs;
  const size_t dim = query_repr.cols();
  for (size_t u = 0; u < query_repr.rows(); ++u) {
    if (u >= candidates.size() || candidates[u].empty()) continue;
    VertexId best = candidates[u][0];
    double best_dist =
        RepresentationDistance(query_repr.row(u), sub_repr.row(best), dim,
                               metric);
    for (size_t i = 1; i < candidates[u].size(); ++i) {
      VertexId v = candidates[u][i];
      double d = RepresentationDistance(query_repr.row(u), sub_repr.row(v),
                                        dim, metric);
      if (d < best_dist) {
        best_dist = d;
        best = v;
      }
    }
    pairs.query_rows.push_back(static_cast<uint32_t>(u));
    pairs.sub_rows.push_back(best);
  }
  return pairs;
}

Var WassersteinLoss(Tape* tape, Var query_scores, Var sub_scores,
                    const Correspondence& pairs) {
  Var fq = tape->ReduceSum(tape->GatherRows(query_scores, pairs.query_rows));
  Var fs = tape->ReduceSum(tape->GatherRows(sub_scores, pairs.sub_rows));
  return tape->Sub(fq, fs);
}

Var CriticWassersteinLoss(
    Tape* tape, Discriminator* critic, Var query_repr, Var sub_repr,
    const std::vector<std::vector<VertexId>>& candidates) {
  Var sq = critic->Score(tape, query_repr);
  Var all_scores = critic->Score(tape, sub_repr);
  Correspondence pairs = SelectCorrespondenceByScores(
      tape->Value(sq), tape->Value(all_scores), candidates);
  if (pairs.size() == 0) return Var{};
  // The distinct selected rows in ascending order, so the weight gradients
  // sum the kept rows in the full pass's order; sub_rows become positions
  // in that list, and a reused row's pairs still meet in one score.
  std::vector<uint32_t> rows = pairs.sub_rows;
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  for (uint32_t& row : pairs.sub_rows) {
    row = static_cast<uint32_t>(
        std::lower_bound(rows.begin(), rows.end(), row) - rows.begin());
  }
  Var ss = critic->Score(tape, tape->GatherRows(sub_repr, rows));
  return WassersteinLoss(tape, sq, ss, pairs);
}

Var PairDistanceLoss(Tape* tape, Var query_repr, Var sub_repr,
                     const Correspondence& pairs, DistanceMetric metric) {
  NEURSC_CHECK(pairs.size() > 0);
  Var a = tape->GatherRows(query_repr, pairs.query_rows);
  Var b = tape->GatherRows(sub_repr, pairs.sub_rows);
  float inv = 1.0f / static_cast<float>(pairs.size());
  switch (metric) {
    case DistanceMetric::kWasserstein:
    case DistanceMetric::kEuclidean: {
      Var diff = tape->Sub(a, b);
      return tape->Scale(tape->ReduceSum(tape->Mul(diff, diff)), inv);
    }
    case DistanceMetric::kKL: {
      Var p = tape->RowSoftmax(a);
      Var q = tape->RowSoftmax(b);
      Var log_ratio = tape->Sub(tape->Log(p), tape->Log(q));
      return tape->Scale(tape->ReduceSum(tape->Mul(p, log_ratio)), inv);
    }
    case DistanceMetric::kJS: {
      Var p = tape->RowSoftmax(a);
      Var q = tape->RowSoftmax(b);
      Var m = tape->Scale(tape->Add(p, q), 0.5f);
      Var kl_pm =
          tape->ReduceSum(tape->Mul(p, tape->Sub(tape->Log(p), tape->Log(m))));
      Var kl_qm =
          tape->ReduceSum(tape->Mul(q, tape->Sub(tape->Log(q), tape->Log(m))));
      return tape->Scale(tape->Add(kl_pm, kl_qm), 0.5f * inv);
    }
  }
  return tape->Constant(Matrix::Scalar(0.0f));
}

}  // namespace neursc
