#include "matching/candidate_filter.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <span>

#include "common/metrics_registry.h"
#include "common/parallel.h"
#include "common/trace.h"
#include "matching/bipartite_matching.h"

namespace neursc {

namespace {

/// Sorted multiset of labels of vertices within distance <= radius of v,
/// excluding v itself (v's own label is compared separately since candidates
/// must share it exactly). Only used for radius > 1; at radius 1 the profile
/// is Graph::NeighborLabels(v).
std::vector<Label> NeighborhoodProfile(const Graph& g, VertexId v,
                                       int radius) {
  std::vector<Label> profile;
  std::vector<uint32_t> dist(g.NumVertices(), UINT32_MAX);
  std::queue<VertexId> queue;
  dist[v] = 0;
  queue.push(v);
  while (!queue.empty()) {
    VertexId x = queue.front();
    queue.pop();
    if (dist[x] >= static_cast<uint32_t>(radius)) continue;
    for (VertexId w : g.Neighbors(x)) {
      if (dist[w] == UINT32_MAX) {
        dist[w] = dist[x] + 1;
        profile.push_back(g.GetLabel(w));
        queue.push(w);
      }
    }
  }
  std::sort(profile.begin(), profile.end());
  return profile;
}

/// Radius > 1 profiles, computed per query: query[u] for every query
/// vertex, data[v] for every data vertex some query vertex inspects past
/// the degree test (other slots stay empty).
struct MaterializedProfiles {
  std::vector<std::vector<Label>> query;
  std::vector<std::vector<Label>> data;
};

MaterializedProfiles MaterializeProfiles(
    const Graph& query, const Graph& data,
    const CandidateFilterOptions& options) {
  const size_t nq = query.NumVertices();
  MaterializedProfiles profiles;
  profiles.query.resize(nq);
  ParallelFor(nq, [&](size_t u) {
    profiles.query[u] = NeighborhoodProfile(query, static_cast<VertexId>(u),
                                            options.profile_radius);
  });

  // The smallest query degree per distinct query label bounds which data
  // vertices can survive the degree test, so profiles are only computed
  // for vertices that at least one query vertex will actually inspect
  // past that test.
  std::vector<size_t> min_degree_for_label;
  for (size_t u = 0; u < nq; ++u) {
    Label label = query.GetLabel(static_cast<VertexId>(u));
    if (label >= min_degree_for_label.size()) {
      min_degree_for_label.resize(label + 1, SIZE_MAX);
    }
    min_degree_for_label[label] =
        std::min(min_degree_for_label[label],
                 options.homomorphism_safe
                     ? size_t{0}
                     : query.Degree(static_cast<VertexId>(u)));
  }
  std::vector<VertexId> to_profile;
  for (Label label = 0; label < min_degree_for_label.size(); ++label) {
    if (min_degree_for_label[label] == SIZE_MAX) continue;
    for (VertexId v : data.VerticesWithLabel(label)) {
      if (data.Degree(v) >= min_degree_for_label[label]) {
        to_profile.push_back(v);
      }
    }
  }
  // Each vertex has exactly one label, so `to_profile` is duplicate-free
  // and every task writes a distinct slot.
  profiles.data.resize(data.NumVertices());
  ParallelFor(to_profile.size(), [&](size_t i) {
    profiles.data[to_profile[i]] =
        NeighborhoodProfile(data, to_profile[i], options.profile_radius);
  });
  return profiles;
}

/// True iff every distinct value of sorted `sub` appears in sorted `super`.
bool IsSubSet(std::span<const Label> sub, std::span<const Label> super) {
  for (Label l : sub) {
    if (!std::binary_search(super.begin(), super.end(), l)) return false;
  }
  return true;
}

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
  // At radius 1 every profile is a NeighborLabels span the graphs built
  // once; larger radii are materialized here first. The per-query-vertex
  // loop then writes only its own candidates[u] slot, so the candidate
  // sets are identical to a serial sweep at every thread count (see
  // docs/threading.md).
  NEURSC_SPAN(local_span, "filter/local");
  const bool materialized = options.profile_radius > 1;
  MaterializedProfiles profiles;
  if (materialized) profiles = MaterializeProfiles(query, data, options);

  std::vector<size_t> inspected_per_vertex(nq, 0);
  CandidateSets result;
  result.candidates.resize(nq);
  ParallelFor(nq, [&](size_t u) {
    VertexId qu = static_cast<VertexId>(u);
    Label label = query.GetLabel(qu);
    std::span<const Label> query_profile =
        materialized ? profiles.query[u] : query.NeighborLabels(qu);
    for (VertexId v : data.VerticesWithLabel(label)) {
      ++inspected_per_vertex[u];
      if (!options.homomorphism_safe &&
          data.Degree(v) < query.Degree(qu)) {
        continue;
      }
      std::span<const Label> data_profile =
          materialized ? profiles.data[v] : data.NeighborLabels(v);
      bool keep = options.homomorphism_safe
                      ? IsSubSet(query_profile, data_profile)
                      : IsSubMultiset(query_profile, data_profile);
      if (keep) result.candidates[u].push_back(v);
    }
  });
  local_span.End();
  size_t inspected = 0;
  for (size_t c : inspected_per_vertex) inspected += c;
  NEURSC_COUNTER_ADD("filter.vertices_inspected",
                     static_cast<int64_t>(inspected));
  NEURSC_COUNTER_ADD("filter.candidates_local",
                     static_cast<int64_t>(result.TotalSize()));
  if (options.local_only || options.homomorphism_safe) return result;

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
