#include "matching/candidate_filter.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/metrics_registry.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "matching/bipartite_matching.h"

namespace neursc {

namespace {

/// True iff sorted multiset `sub` is contained in sorted multiset `super`.
bool IsSubMultiset(std::span<const Label> sub, std::span<const Label> super) {
  size_t i = 0;
  size_t j = 0;
  while (i < sub.size() && j < super.size()) {
    if (sub[i] == super[j]) {
      ++i;
      ++j;
    } else if (sub[i] > super[j]) {
      ++j;
    } else {
      return false;
    }
  }
  return i == sub.size();
}

}  // namespace

bool CandidateSets::AnyEmpty() const {
  for (const auto& cs : candidates) {
    if (cs.empty()) return true;
  }
  return false;
}

size_t CandidateSets::UnionSize() const { return Union().size(); }

std::vector<VertexId> CandidateSets::Union() const {
  std::vector<VertexId> all;
  for (const auto& cs : candidates) all.insert(all.end(), cs.begin(), cs.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

size_t CandidateSets::TotalSize() const {
  size_t total = 0;
  for (const auto& cs : candidates) total += cs.size();
  return total;
}

Result<CandidateSets> ComputeCandidateSets(
    const Graph& query, const Graph& data,
    const CandidateFilterOptions& options) {
  if (query.NumVertices() == 0) {
    return Status::InvalidArgument("empty query graph");
  }
  NEURSC_SPAN(filter_span, "filter/candidates");
  NEURSC_COUNTER_INC("filter.queries");
  const size_t nq = query.NumVertices();

  // --- Stage 1: local pruning by neighborhood label profiles. ---
  // Every profile is a NeighborLabels span the graphs built once. The
  // per-query-vertex loop writes only its own candidates[u] slot, so the
  // candidate sets are identical to a serial sweep at every thread count
  // (see docs/threading.md).
  NEURSC_SPAN(local_span, "filter/local");
  std::vector<size_t> inspected_per_vertex(nq, 0);
  CandidateSets result;
  result.candidates.resize(nq);
  ParallelFor(nq, [&](size_t u) {
    VertexId qu = static_cast<VertexId>(u);
    Label label = query.GetLabel(qu);
    std::span<const Label> query_profile = query.NeighborLabels(qu);
    for (VertexId v : data.VerticesWithLabel(label)) {
      ++inspected_per_vertex[u];
      if (data.Degree(v) < query.Degree(qu)) continue;
      if (IsSubMultiset(query_profile, data.NeighborLabels(v))) {
        result.candidates[u].push_back(v);
      }
    }
  });
  local_span.End();
  size_t inspected = 0;
  for (size_t c : inspected_per_vertex) inspected += c;
  NEURSC_COUNTER_ADD("filter.vertices_inspected",
                     static_cast<int64_t>(inspected));
  NEURSC_COUNTER_ADD("filter.candidates_local",
                     static_cast<int64_t>(result.TotalSize()));

  // Membership of every CS(u) in one flat bitmap, maintained across
  // refinement sweeps: bit v of row u is set iff v is in CS(u).
  const size_t words_per_row = (data.NumVertices() + 63) / 64;
  std::vector<uint64_t> is_candidate(nq * words_per_row, 0);
  for (size_t u = 0; u < nq; ++u) {
    uint64_t* row = is_candidate.data() + u * words_per_row;
    for (VertexId v : result.candidates[u]) {
      row[v / 64] |= uint64_t{1} << (v % 64);
    }
  }

  // --- Stage 2: global refinement by semi-perfect matching. ---
  // One bipartite graph and one matching scratch serve every candidate
  // pair, and CS(u) is compacted in place, so a sweep allocates only when
  // a pair is larger than every pair before it.
  NEURSC_SPAN(refine_span, "filter/refine");
  BipartiteGraph b;
  MatchingScratch scratch;
  int rounds_run = 0;
  for (int round = 0; round < options.refinement_rounds; ++round) {
    ++rounds_run;
    bool changed = false;
    for (size_t u = 0; u < nq; ++u) {
      auto query_nbrs = query.Neighbors(static_cast<VertexId>(u));
      std::vector<VertexId>& cs = result.candidates[u];
      size_t kept = 0;
      for (VertexId v : cs) {
        auto data_nbrs = data.Neighbors(v);
        b.Reset(query_nbrs.size(), data_nbrs.size());
        // A neighbor u' with no admissible image rejects v without a
        // matching run.
        bool every_left_has_edge = true;
        for (size_t i = 0; i < query_nbrs.size() && every_left_has_edge;
             ++i) {
          const uint64_t* row =
              is_candidate.data() + query_nbrs[i] * words_per_row;
          for (size_t j = 0; j < data_nbrs.size(); ++j) {
            VertexId w = data_nbrs[j];
            if ((row[w / 64] >> (w % 64)) & 1) b.AddEdge(i, j);
          }
          every_left_has_edge = !b.NeighborsOfLeft(i).empty();
        }
        if (every_left_has_edge && HasLeftSaturatingMatching(b, scratch)) {
          cs[kept++] = v;
        } else {
          is_candidate[u * words_per_row + v / 64] &=
              ~(uint64_t{1} << (v % 64));
          changed = true;
        }
      }
      cs.resize(kept);
    }
    if (!changed) break;
  }
  NEURSC_COUNTER_ADD("filter.refine_rounds", rounds_run);
  NEURSC_COUNTER_ADD("filter.candidates_refined",
                     static_cast<int64_t>(result.TotalSize()));
  return result;
}

}  // namespace neursc
