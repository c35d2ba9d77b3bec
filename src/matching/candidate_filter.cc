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
  // Every profile is a NeighborLabels span the graphs built once, and a
  // label signature that misses a bit of u's rejects v before the merge.
  // The per-query-vertex loop writes only its own slots, so the candidate
  // sets are identical to a serial sweep at every thread count (see
  // docs/threading.md).
  NEURSC_SPAN(local_span, "filter/local");
  std::vector<size_t> inspected_per_vertex(nq, 0);
  std::vector<size_t> signature_rejects_per_vertex(nq, 0);
  CandidateSets result;
  result.candidates.resize(nq);
  ParallelFor(nq, [&](size_t u) {
    VertexId qu = static_cast<VertexId>(u);
    Label label = query.GetLabel(qu);
    std::span<const Label> query_profile = query.NeighborLabels(qu);
    const uint64_t query_signature = query.LabelSignature(qu);
    for (VertexId v : data.VerticesWithLabel(label)) {
      ++inspected_per_vertex[u];
      if (data.Degree(v) < query.Degree(qu)) continue;
      if ((query_signature & ~data.LabelSignature(v)) != 0) {
        ++signature_rejects_per_vertex[u];
        continue;
      }
      if (IsSubMultiset(query_profile, data.NeighborLabels(v))) {
        result.candidates[u].push_back(v);
      }
    }
  });
  local_span.End();
  size_t inspected = 0;
  for (size_t c : inspected_per_vertex) inspected += c;
  size_t signature_rejects = 0;
  for (size_t c : signature_rejects_per_vertex) signature_rejects += c;
  NEURSC_COUNTER_ADD("filter.vertices_inspected",
                     static_cast<int64_t>(inspected));
  NEURSC_COUNTER_ADD("filter.signature_rejects",
                     static_cast<int64_t>(signature_rejects));
  NEURSC_COUNTER_ADD("filter.candidates_local",
                     static_cast<int64_t>(result.TotalSize()));

  // Membership of every CS(u) in one flat bitmap, maintained across
  // refinement sweeps: bit v of row u is set iff v is in CS(u). The bitmap
  // is this thread's scratch and all-zero between calls, so a query
  // writes only its own candidates' words and clears them before
  // returning; nothing of size |V| is filled per query.
  const size_t words_per_row = (data.NumVertices() + 63) / 64;
  thread_local std::vector<uint64_t> bitmap;
  if (bitmap.size() < nq * words_per_row) {
    bitmap.resize(nq * words_per_row, 0);
  }
  uint64_t* const is_candidate = bitmap.data();
  auto row = [&](size_t u) { return is_candidate + u * words_per_row; };
  auto has = [](const uint64_t* row, VertexId v) {
    return ((row[v / 64] >> (v % 64)) & 1) != 0;
  };
  for (size_t u = 0; u < nq; ++u) {
    for (VertexId v : result.candidates[u]) {
      row(u)[v / 64] |= uint64_t{1} << (v % 64);
    }
  }

  // --- Stage 2: global refinement by semi-perfect matching. ---
  // dirty[u][i] is set iff the bipartite graph of (u, CS(u)[i]) lost an
  // edge since that pair last passed (initially: never tested). Removing w
  // from CS(u') deletes the edges (u', w) of exactly the pairs (u, v) with
  // u in N(u') and v in N(w), so only those are marked. A clean pair would
  // pass again, because its bipartite graph is the one that passed, so it
  // is skipped; the removals, their order and the sweep count are those
  // of re-testing every pair. The flags sit beside CS(u) and are
  // compacted with it.
  NEURSC_SPAN(refine_span, "filter/refine");
  std::vector<std::vector<uint8_t>> dirty(nq);
  for (size_t u = 0; u < nq; ++u) {
    dirty[u].assign(result.candidates[u].size(), 1);
  }
  // Removes v from CS(u) during sweep `round` and marks the pairs whose
  // bipartite graph lost an edge. A pair of a later query vertex is still
  // dirty in the first sweep, and a pair of an earlier one is never
  // tested again after the last sweep, so neither is marked.
  auto remove = [&](int round, size_t u, VertexId v) {
    row(u)[v / 64] &= ~(uint64_t{1} << (v % 64));
    for (VertexId nu : query.Neighbors(static_cast<VertexId>(u))) {
      if (nu > u ? round == 0 : round + 1 == options.refinement_rounds) {
        continue;
      }
      const std::vector<VertexId>& cs = result.candidates[nu];
      const uint64_t* nu_row = row(nu);
      for (VertexId w : data.Neighbors(v)) {
        if (!has(nu_row, w)) continue;
        dirty[nu][std::lower_bound(cs.begin(), cs.end(), w) - cs.begin()] = 1;
      }
    }
  };
  // The semi-perfect matching test of (u, v). Row i of the matcher holds
  // bit j iff N(v)[j] is in CS(N(u)[i]), read off the membership bitmap a
  // word of N(v) at a time. An empty row rejects v without a matching
  // run, and with at most one query neighbour a nonempty row is a
  // saturating matching. The matcher is this thread's scratch, so a sweep
  // allocates only when a pair is larger than every pair before it.
  thread_local SemiPerfectMatcher matcher;
  int64_t pair_tests = 0;
  auto passes = [&](VertexId u, VertexId v) {
    ++pair_tests;
    auto query_nbrs = query.Neighbors(u);
    auto data_nbrs = data.Neighbors(v);
    matcher.Reset(query_nbrs.size(), data_nbrs.size());
    for (size_t i = 0; i < query_nbrs.size(); ++i) {
      const uint64_t* nbr_row = row(query_nbrs[i]);
      uint64_t* bits = matcher.Row(i);
      uint64_t any = 0;
      for (size_t w = 0; w < matcher.WordsPerRow(); ++w) {
        const size_t end = std::min(data_nbrs.size(), 64 * (w + 1));
        uint64_t word = 0;
        for (size_t j = 64 * w; j < end; ++j) {
          word |= uint64_t{has(nbr_row, data_nbrs[j])} << (j % 64);
        }
        bits[w] = word;
        any |= word;
      }
      if (any == 0) return false;
    }
    return query_nbrs.size() <= 1 || matcher.HasLeftSaturatingMatching();
  };
  // An empty CS(u) fixes the count at 0, so refinement stops as soon as
  // one empties (or never starts, when local pruning emptied one).
  int rounds_run = 0;
  bool some_empty = result.AnyEmpty();
  for (int round = 0; round < options.refinement_rounds && !some_empty;
       ++round) {
    ++rounds_run;
    bool changed = false;
    for (size_t u = 0; u < nq && !some_empty; ++u) {
      std::vector<VertexId>& cs = result.candidates[u];
      std::vector<uint8_t>& cs_dirty = dirty[u];
      size_t kept = 0;
      for (size_t k = 0; k < cs.size(); ++k) {
        const VertexId v = cs[k];
        if (!cs_dirty[k] || passes(static_cast<VertexId>(u), v)) {
          cs[kept] = v;
          cs_dirty[kept++] = 0;
        } else {
          remove(round, u, v);
          changed = true;
        }
      }
      cs.resize(kept);
      cs_dirty.resize(kept);
      some_empty = kept == 0;
    }
    if (!changed) break;
  }
  for (size_t u = 0; u < nq; ++u) {
    for (VertexId v : result.candidates[u]) row(u)[v / 64] = 0;
  }
  NEURSC_COUNTER_ADD("filter.refine_rounds", rounds_run);
  NEURSC_COUNTER_ADD("filter.pair_tests", pair_tests);
  NEURSC_COUNTER_ADD("filter.candidates_refined",
                     static_cast<int64_t>(result.TotalSize()));
  return result;
}

}  // namespace neursc
