#ifndef NEURSC_TESTS_HOPCROFT_KARP_H_
#define NEURSC_TESTS_HOPCROFT_KARP_H_

#include <cstddef>
#include <vector>

namespace neursc {

/// A bipartite graph over left vertices [0, num_left) and right vertices
/// [0, num_right), stored as per-left adjacency lists. The tests' oracle
/// for the candidate filter's semi-perfect matching test
/// (matching/bipartite_matching.h), which stores the same graph as bit
/// rows.
class BipartiteGraph {
 public:
  BipartiteGraph(size_t num_left, size_t num_right)
      : num_right_(num_right), adjacency_(num_left) {}

  void AddEdge(size_t left, size_t right) {
    adjacency_[left].push_back(right);
  }

  size_t NumLeft() const { return adjacency_.size(); }
  size_t NumRight() const { return num_right_; }
  const std::vector<size_t>& NeighborsOfLeft(size_t left) const {
    return adjacency_[left];
  }

 private:
  size_t num_right_;
  std::vector<std::vector<size_t>> adjacency_;
};

/// Size of a maximum matching, via Hopcroft-Karp (O(E sqrt(V))).
size_t MaximumBipartiteMatching(const BipartiteGraph& g);

/// True iff a matching saturating every left vertex exists.
bool HasLeftSaturatingMatching(const BipartiteGraph& g);

}  // namespace neursc

#endif  // NEURSC_TESTS_HOPCROFT_KARP_H_
