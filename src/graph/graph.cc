#include "graph/graph.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <unordered_map>

namespace neursc {

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= NumVertices() || v >= NumVertices()) return false;
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::span<const VertexId> Graph::VerticesWithLabel(Label label) const {
  if (label >= num_labels_) return {};
  return {vertices_by_label_.data() + label_offsets_[label],
          label_offsets_[label + 1] - label_offsets_[label]};
}

double Graph::Density() const {
  size_t n = NumVertices();
  if (n < 2) return 0.0;
  return 2.0 * static_cast<double>(NumEdges()) /
         (static_cast<double>(n) * static_cast<double>(n - 1));
}

bool Graph::IsConnected() const {
  size_t n = NumVertices();
  if (n == 0) return true;
  std::vector<bool> seen(n, false);
  std::vector<VertexId> stack = {0};
  seen[0] = true;
  size_t visited = 1;
  while (!stack.empty()) {
    VertexId v = stack.back();
    stack.pop_back();
    for (VertexId w : Neighbors(v)) {
      if (!seen[w]) {
        seen[w] = true;
        ++visited;
        stack.push_back(w);
      }
    }
  }
  return visited == n;
}

std::string Graph::Summary() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "|V|=%zu |E|=%zu |L|=%zu d=%.1f",
                NumVertices(), NumEdges(), NumLabels(), AverageDegree());
  return buf;
}

uint64_t Graph::Fingerprint() const {
  // FNV-1a over the defining arrays. Sizes are mixed in first so that
  // e.g. an empty graph and a single unlabeled vertex hash differently.
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  mix(NumVertices());
  mix(NumEdges());
  for (Label l : labels_) mix(l);
  for (size_t off : offsets_) mix(off);
  for (VertexId v : adjacency_) mix(v);
  return h;
}

void GraphBuilder::Reserve(size_t num_vertices, size_t num_edges) {
  labels_.reserve(num_vertices);
  edges_.reserve(num_edges);
}

VertexId GraphBuilder::AddVertex(Label label) {
  labels_.push_back(label);
  return static_cast<VertexId>(labels_.size() - 1);
}

Status GraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u >= labels_.size() || v >= labels_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (u == v) {
    return Status::InvalidArgument("self loop");
  }
  edges_.emplace_back(u, v);
  return Status::OK();
}

Result<Graph> GraphBuilder::Build() {
  Graph g;
  const size_t n = labels_.size();
  g.labels_ = std::move(labels_);
  labels_.clear();
  Label max_label = 0;
  for (Label l : g.labels_) max_label = std::max(max_label, l);
  if (max_label >= kMaxLabels) {
    edges_.clear();
    return Status::InvalidArgument("label " + std::to_string(max_label) +
                                   " exceeds the label cap " +
                                   std::to_string(kMaxLabels));
  }

  // Degree counting pass.
  g.offsets_.assign(n + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  std::partial_sum(g.offsets_.begin(), g.offsets_.end(), g.offsets_.begin());

  g.adjacency_.resize(edges_.size() * 2);
  std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges_) {
    g.adjacency_[cursor[u]++] = v;
    g.adjacency_[cursor[v]++] = u;
  }
  edges_.clear();

  g.max_degree_ = 0;
  g.neighbor_labels_.resize(g.adjacency_.size());
  for (size_t v = 0; v < n; ++v) {
    auto begin = g.adjacency_.begin() + static_cast<ptrdiff_t>(g.offsets_[v]);
    auto end = g.adjacency_.begin() + static_cast<ptrdiff_t>(g.offsets_[v + 1]);
    std::sort(begin, end);
    if (std::adjacent_find(begin, end) != end) {
      return Status::InvalidArgument("duplicate edge at vertex " +
                                     std::to_string(v));
    }
    g.max_degree_ = std::max(
        g.max_degree_, static_cast<uint32_t>(std::distance(begin, end)));
    auto labels_begin =
        g.neighbor_labels_.begin() + static_cast<ptrdiff_t>(g.offsets_[v]);
    auto labels_end = std::transform(
        begin, end, labels_begin, [&g](VertexId w) { return g.labels_[w]; });
    std::sort(labels_begin, labels_end);
  }

  // Label grouping.
  g.num_labels_ = n == 0 ? 0 : static_cast<size_t>(max_label) + 1;
  g.label_offsets_.assign(g.num_labels_ + 1, 0);
  for (Label l : g.labels_) ++g.label_offsets_[l + 1];
  std::partial_sum(g.label_offsets_.begin(), g.label_offsets_.end(),
                   g.label_offsets_.begin());
  g.vertices_by_label_.resize(n);
  std::vector<size_t> lcursor(g.label_offsets_.begin(),
                              g.label_offsets_.end() - 1);
  for (size_t v = 0; v < n; ++v) {
    g.vertices_by_label_[lcursor[g.labels_[v]]++] =
        static_cast<VertexId>(v);
  }
  return g;
}

Result<InducedSubgraph> BuildInducedSubgraph(
    const Graph& g, const std::vector<VertexId>& vertices) {
  std::unordered_map<VertexId, VertexId> to_local;
  to_local.reserve(vertices.size());
  GraphBuilder builder;
  builder.Reserve(vertices.size(), vertices.size() * 4);
  for (VertexId v : vertices) {
    if (v >= g.NumVertices()) {
      return Status::InvalidArgument("vertex out of range");
    }
    auto [it, inserted] = to_local.emplace(v, builder.NumVertices());
    if (!inserted) {
      return Status::InvalidArgument("duplicate vertex in induced set");
    }
    builder.AddVertex(g.GetLabel(v));
  }
  for (VertexId v : vertices) {
    VertexId lv = to_local[v];
    for (VertexId w : g.Neighbors(v)) {
      auto it = to_local.find(w);
      // Add each edge once, from the lower local id.
      if (it != to_local.end() && lv < it->second) {
        NEURSC_RETURN_IF_ERROR(builder.AddEdge(lv, it->second));
      }
    }
  }
  auto built = builder.Build();
  if (!built.ok()) return built.status();
  return InducedSubgraph{std::move(built).value(), vertices};
}

std::vector<std::vector<VertexId>> ConnectedComponents(const Graph& g) {
  const size_t n = g.NumVertices();
  std::vector<int> comp(n, -1);
  std::vector<std::vector<VertexId>> components;
  std::vector<VertexId> stack;
  for (size_t s = 0; s < n; ++s) {
    if (comp[s] >= 0) continue;
    int id = static_cast<int>(components.size());
    components.emplace_back();
    comp[s] = id;
    stack.push_back(static_cast<VertexId>(s));
    while (!stack.empty()) {
      VertexId v = stack.back();
      stack.pop_back();
      components[id].push_back(v);
      for (VertexId w : g.Neighbors(v)) {
        if (comp[w] < 0) {
          comp[w] = id;
          stack.push_back(w);
        }
      }
    }
    std::sort(components[id].begin(), components[id].end());
  }
  return components;
}

}  // namespace neursc
