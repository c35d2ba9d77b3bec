#ifndef NEURSC_MATCHING_BIPARTITE_MATCHING_H_
#define NEURSC_MATCHING_BIPARTITE_MATCHING_H_

#include <cstddef>
#include <vector>

namespace neursc {

/// A bipartite graph over left vertices [0, num_left) and right vertices
/// [0, num_right), stored as per-left adjacency lists. Used by GraphQL's
/// global refinement to test whether every neighbor of a query vertex can
/// be injectively assigned to a distinct neighbor of a data vertex.
///
/// Reset() empties the graph for reuse and keeps the lists' capacity, so a
/// caller testing many small graphs in a row allocates only when a graph
/// is larger than every one before it.
class BipartiteGraph {
 public:
  BipartiteGraph() = default;
  BipartiteGraph(size_t num_left, size_t num_right) {
    Reset(num_left, num_right);
  }

  /// Makes this the edgeless graph on num_left x num_right vertices.
  void Reset(size_t num_left, size_t num_right) {
    if (adjacency_.size() < num_left) adjacency_.resize(num_left);
    for (size_t l = 0; l < num_left; ++l) adjacency_[l].clear();
    num_left_ = num_left;
    num_right_ = num_right;
  }

  void AddEdge(size_t left, size_t right) {
    adjacency_[left].push_back(right);
  }

  size_t NumLeft() const { return num_left_; }
  size_t NumRight() const { return num_right_; }
  const std::vector<size_t>& NeighborsOfLeft(size_t left) const {
    return adjacency_[left];
  }

 private:
  size_t num_left_ = 0;
  size_t num_right_ = 0;
  // Only the first num_left_ lists belong to the graph; the rest are spare
  // capacity from earlier, larger graphs.
  std::vector<std::vector<size_t>> adjacency_;
};

/// Working arrays of one Hopcroft-Karp run. Passing the same scratch to
/// many calls reuses its storage; its contents between calls carry no
/// meaning, so results never depend on what it held before.
struct MatchingScratch {
  std::vector<size_t> match_left;
  std::vector<size_t> match_right;
  std::vector<size_t> dist;
  std::vector<size_t> queue;
};

/// Size of a maximum matching, via Hopcroft-Karp (O(E sqrt(V))).
size_t MaximumBipartiteMatching(const BipartiteGraph& g,
                                MatchingScratch& scratch);
size_t MaximumBipartiteMatching(const BipartiteGraph& g);

/// True iff a matching saturating every left vertex exists. This is the
/// "semi-perfect matching" test of GraphQL's global refinement (the paper's
/// Sec. 4): every neighbor u' of query vertex u must be assignable to a
/// distinct neighbor v' of data vertex v with v' in CS(u').
bool HasLeftSaturatingMatching(const BipartiteGraph& g,
                               MatchingScratch& scratch);
bool HasLeftSaturatingMatching(const BipartiteGraph& g);

}  // namespace neursc

#endif  // NEURSC_MATCHING_BIPARTITE_MATCHING_H_
