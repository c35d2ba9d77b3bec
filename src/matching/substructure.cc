#include "matching/substructure.h"

#include <algorithm>

#include "common/metrics_registry.h"
#include "common/trace.h"

namespace neursc {

namespace {

/// Splits the subgraph of `data` induced by the sorted, duplicate-free
/// `universe` into connected components in one traversal, keeps those at
/// least as large as the query, and localizes the candidate sets.
/// Components come out ordered by their smallest data id, each with its
/// vertices in ascending order.
Result<ExtractionResult> SplitIntoSubstructures(
    const Graph& query, const Graph& data,
    const std::vector<VertexId>& universe, const CandidateSets& candidates) {
  NEURSC_SPAN(split_span, "extract/split");
  ExtractionResult out;
  out.stats.candidate_union_size = universe.size();
  out.stats.total_candidates = candidates.TotalSize();
  const size_t nq = query.NumVertices();
  if (universe.size() < nq) {
    out.early_terminate = true;
    return out;
  }

  // local[v] is kInvalidVertex outside the universe and kUnvisited for a
  // member not yet reached; once reached, it is v's id in its component
  // (meaningful only for kept components, hence the original_id check
  // when candidate sets are localized). The array is this thread's
  // scratch, all kInvalidVertex between calls: only the universe's entries
  // are written, and they are reset before returning.
  constexpr VertexId kUnvisited = kInvalidVertex - 1;
  thread_local std::vector<VertexId> local;
  if (local.size() < data.NumVertices()) {
    local.resize(data.NumVertices(), kInvalidVertex);
  }
  for (VertexId v : universe) local[v] = kUnvisited;

  std::vector<VertexId> component;
  for (VertexId root : universe) {
    if (local[root] != kUnvisited) continue;
    ++out.stats.components_total;
    // Breadth-first, using `component` itself as the queue; every edge
    // inside the component is seen once from each end.
    component.assign(1, root);
    local[root] = 0;
    size_t edge_ends = 0;
    for (size_t i = 0; i < component.size(); ++i) {
      for (VertexId w : data.Neighbors(component[i])) {
        if (local[w] == kInvalidVertex) continue;
        ++edge_ends;
        if (local[w] == kUnvisited) {
          local[w] = 0;
          component.push_back(w);
        }
      }
    }
    if (component.size() < nq || edge_ends / 2 < query.NumEdges()) continue;

    // The component's CSR, read straight off `data`. Every universe
    // neighbour of a member lies in the same component, so a neighbour
    // is kept iff it is in the universe. Local ids ascend with data ids,
    // so each filtered neighbour list is already sorted.
    std::sort(component.begin(), component.end());
    for (size_t i = 0; i < component.size(); ++i) {
      local[component[i]] = static_cast<VertexId>(i);
    }
    std::vector<Label> labels(component.size());
    std::vector<size_t> offsets(component.size() + 1, 0);
    std::vector<VertexId> adjacency(edge_ends);
    size_t end = 0;
    for (size_t i = 0; i < component.size(); ++i) {
      labels[i] = data.GetLabel(component[i]);
      for (VertexId w : data.Neighbors(component[i])) {
        if (local[w] != kInvalidVertex) adjacency[end++] = local[w];
      }
      offsets[i + 1] = end;
    }
    Substructure s;
    s.graph = Graph::FromValidatedCsr(std::move(labels), std::move(offsets),
                                      std::move(adjacency));
    s.original_id = component;
    // CS(u) is sorted and local ids follow data ids, so each localized
    // set comes out sorted.
    s.local_candidates.resize(nq);
    for (size_t u = 0; u < nq; ++u) {
      for (VertexId v : candidates.candidates[u]) {
        VertexId lv = local[v];
        if (lv < s.original_id.size() && s.original_id[lv] == v) {
          s.local_candidates[u].push_back(lv);
        }
      }
    }
    out.stats.largest_substructure_vertices =
        std::max(out.stats.largest_substructure_vertices,
                 s.graph.NumVertices());
    out.substructures.push_back(std::move(s));
  }
  for (VertexId v : universe) local[v] = kInvalidVertex;
  out.stats.components_kept = out.substructures.size();
  if (out.substructures.empty()) out.early_terminate = true;
  NEURSC_COUNTER_ADD("extract.components_total",
                     static_cast<int64_t>(out.stats.components_total));
  NEURSC_COUNTER_ADD("extract.substructures",
                     static_cast<int64_t>(out.substructures.size()));
  return out;
}

}  // namespace

Result<ExtractionResult> ExtractSubstructures(
    const Graph& query, const Graph& data,
    const CandidateFilterOptions& filter_options) {
  NEURSC_SPAN(extract_span, "extract/total");
  auto candidates = ComputeCandidateSets(query, data, filter_options);
  if (!candidates.ok()) return candidates.status();
  const auto& sets = candidates->candidates;
  const auto empty = std::find_if(sets.begin(), sets.end(),
                                  [](const auto& cs) { return cs.empty(); });
  if (empty != sets.end()) {
    NEURSC_COUNTER_INC("extract.early_terminated");
    ExtractionResult out;
    out.early_terminate = true;
    out.stats.candidate_union_size = candidates->UnionSize();
    out.stats.total_candidates = candidates->TotalSize();
    out.stats.empty_query_vertex = static_cast<VertexId>(empty - sets.begin());
    return out;
  }
  auto universe = candidates->Union();
  return SplitIntoSubstructures(query, data, universe, *candidates);
}

Result<ExtractionResult> BuildSubstructuresFromVertices(
    const Graph& query, const Graph& data,
    const std::vector<VertexId>& universe, const CandidateSets& candidates) {
  // SplitIntoSubstructures indexes a |V(data)| array by every universe
  // vertex and every candidate, so both are range-checked here.
  if (candidates.candidates.size() != query.NumVertices()) {
    return Status::InvalidArgument("one candidate set per query vertex");
  }
  for (const auto& cs : candidates.candidates) {
    if (!std::is_sorted(cs.begin(), cs.end()) ||
        (!cs.empty() && cs.back() >= data.NumVertices())) {
      return Status::InvalidArgument("candidate set unsorted or out of range");
    }
  }
  std::vector<VertexId> sorted = universe;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  if (!sorted.empty() && sorted.back() >= data.NumVertices()) {
    return Status::InvalidArgument("universe vertex out of range");
  }
  return SplitIntoSubstructures(query, data, sorted, candidates);
}

}  // namespace neursc
