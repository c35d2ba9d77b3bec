#ifndef NEURSC_GRAPH_GRAPH_H_
#define NEURSC_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace neursc {

/// Vertex identifier; dense in [0, NumVertices()).
using VertexId = uint32_t;
/// Vertex label identifier; dense in [0, NumLabels()).
using Label = uint32_t;

constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// Labels must lie in [0, kMaxLabels). Graph groups vertices by label in a
/// table with one slot per label up to the largest one, so an unbounded
/// label from a corrupt file would size that table; the paper's datasets
/// use at most 71 labels.
constexpr Label kMaxLabels = Label{1} << 20;

/// An immutable undirected vertex-labeled graph stored in CSR form.
///
/// Neighbor lists are sorted, enabling O(log d) edge tests and O(d1+d2)
/// neighborhood intersections. Both query graphs and data graphs use this
/// representation; a query/data pair is assumed to share one label space
/// (the paper's shared label mapping function f_l).
class Graph {
 public:
  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  /// Builds a graph from CSR arrays the caller has already validated, and
  /// derives the neighbour labels, label signatures, label groups and max
  /// degree. Vertex v's neighbours are adjacency[offsets[v], offsets[v+1]):
  /// each list sorted, duplicate-free, free of self loops, with every edge
  /// listed from both ends; offsets has |labels| + 1 entries, starting at 0
  /// and ending at |adjacency|; every label is below kMaxLabels. Nothing
  /// but the array sizes is checked. GraphBuilder::Build validates its
  /// edge list and then comes here; the substructure split comes here
  /// directly, because a component it cuts from a valid graph already
  /// meets the contract.
  static Graph FromValidatedCsr(std::vector<Label> labels,
                                std::vector<size_t> offsets,
                                std::vector<VertexId> adjacency);

  size_t NumVertices() const { return labels_.size(); }
  /// Number of undirected edges.
  size_t NumEdges() const { return adjacency_.size() / 2; }
  /// Number of distinct labels present (max label + 1).
  size_t NumLabels() const { return num_labels_; }

  Label GetLabel(VertexId v) const { return labels_[v]; }

  uint32_t Degree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  uint32_t MaxDegree() const { return max_degree_; }

  /// Sorted neighbor list of v.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Labels of v's neighbors in ascending order: the radius-1 label
  /// profile that candidate filtering compares (same length as
  /// Neighbors(v), but not position-aligned with it).
  std::span<const Label> NeighborLabels(VertexId v) const {
    return {neighbor_labels_.data() + offsets_[v],
            offsets_[v + 1] - offsets_[v]};
  }

  /// One bit per neighbour label: bit (l mod 64) is set iff some neighbour
  /// of v has a label l of that residue; 0 for an isolated vertex. If u's
  /// neighbour labels are a sub-multiset of v's, then
  /// (LabelSignature(u) & ~LabelSignature(v)) == 0, so a nonzero result
  /// rejects v as u's candidate without comparing the profiles.
  uint64_t LabelSignature(VertexId v) const { return label_signatures_[v]; }

  /// True iff the undirected edge (u, v) exists. O(log deg(u)).
  bool HasEdge(VertexId u, VertexId v) const;

  /// All vertices carrying `label` (sorted). Empty span for unused labels.
  std::span<const VertexId> VerticesWithLabel(Label label) const;

  /// Count of vertices carrying `label`.
  size_t LabelFrequency(Label label) const {
    return VerticesWithLabel(label).size();
  }

  /// Average degree, 2|E| / |V|.
  double AverageDegree() const {
    return NumVertices() == 0
               ? 0.0
               : 2.0 * static_cast<double>(NumEdges()) / NumVertices();
  }

  /// Edge density |E| / (|V| choose 2).
  double Density() const;

  /// True iff the graph is connected (empty graph counts as connected).
  bool IsConnected() const;

  /// A short human-readable summary, e.g. "|V|=3112 |E|=12519 |L|=71 d=8.0".
  std::string Summary() const;

  /// 64-bit FNV-1a structural fingerprint over labels and adjacency.
  /// Graphs that are equal vertex-for-vertex (same ids, labels, and edges)
  /// hash equal; perfbench's manifest check compares it against the
  /// fingerprints written with its inputs. Not isomorphism-invariant.
  /// Derived arrays (neighbor labels, signatures, label groups) are not
  /// hashed.
  uint64_t Fingerprint() const;
  /// Equality over the arrays Fingerprint() hashes: same vertex ids,
  /// labels and edges.
  bool operator==(const Graph& other) const {
    return labels_ == other.labels_ && offsets_ == other.offsets_ &&
           adjacency_ == other.adjacency_;
  }

 private:
  friend class GraphBuilder;

  std::vector<size_t> offsets_;     // size NumVertices()+1
  std::vector<VertexId> adjacency_; // size 2*NumEdges(), sorted per vertex
  // Derived from adjacency_ and labels_: per-vertex neighbor labels,
  // indexed by offsets_, sorted per vertex.
  std::vector<Label> neighbor_labels_;
  // Derived from neighbor_labels_: LabelSignature(v), one word per vertex.
  std::vector<uint64_t> label_signatures_;
  std::vector<Label> labels_;
  // Vertices grouped by label: label_offsets_[l]..label_offsets_[l+1] indexes
  // into vertices_by_label_.
  std::vector<size_t> label_offsets_;
  std::vector<VertexId> vertices_by_label_;
  size_t num_labels_ = 0;
  uint32_t max_degree_ = 0;
};

/// Incremental constructor for Graph. Duplicate edges and self-loops are
/// rejected at Build() time.
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-sizes internal storage for n vertices.
  void Reserve(size_t num_vertices, size_t num_edges);

  /// Adds a vertex with the given label; returns its id.
  VertexId AddVertex(Label label);

  /// Adds an undirected edge. Both endpoints must already exist.
  Status AddEdge(VertexId u, VertexId v);

  size_t NumVertices() const { return labels_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  /// Validates and finalizes into an immutable Graph. Fails on duplicate
  /// edges, self loops or a label >= kMaxLabels. The builder is left empty
  /// afterwards.
  Result<Graph> Build();

 private:
  std::vector<Label> labels_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

/// Result of taking an induced subgraph: the subgraph plus the mapping from
/// its (dense) vertex ids back to the original graph's vertex ids.
struct InducedSubgraph {
  Graph graph;
  /// original_id[i] is the parent-graph id of subgraph vertex i.
  std::vector<VertexId> original_id;
};

/// Builds the subgraph of `g` induced by `vertices` (kept in the given
/// order; duplicates are invalid). Labels carry over.
Result<InducedSubgraph> BuildInducedSubgraph(
    const Graph& g, const std::vector<VertexId>& vertices);

/// Partitions the vertices of g into connected components. Each component
/// lists its member vertices in ascending order.
std::vector<std::vector<VertexId>> ConnectedComponents(const Graph& g);

}  // namespace neursc

#endif  // NEURSC_GRAPH_GRAPH_H_
