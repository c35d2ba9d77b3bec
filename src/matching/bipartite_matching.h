#ifndef NEURSC_MATCHING_BIPARTITE_MATCHING_H_
#define NEURSC_MATCHING_BIPARTITE_MATCHING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace neursc {

/// The semi-perfect matching test of GraphQL's global refinement (the
/// paper's Sec. 4): can every neighbour u' of query vertex u be assigned to
/// a distinct neighbour v' of data vertex v with v' in CS(u')?
///
/// The bipartite graph is stored as bit rows: left vertex l (a query
/// neighbour) has one row of WordsPerRow() = ceil(num_right / 64) words,
/// and bit r of the row is set iff (l, r) is an edge. The test runs
/// augmenting-path search (Kuhn's algorithm) over the rows with word
/// operations: each search takes a free right vertex directly when the
/// row reaches one, and otherwise grows an alternating BFS tree, so a
/// right vertex is visited at most once per search. It works at every
/// right-side size.
///
/// A matcher is reusable scratch: Reset() keeps every array's capacity,
/// so a caller testing many pairs in a row allocates only when a pair is
/// larger than every one before it, and no answer depends on what an
/// earlier test left behind. A matcher is not thread-safe; the candidate
/// filter keeps one per thread.
class SemiPerfectMatcher {
 public:
  /// Makes this the edgeless graph on num_left x num_right vertices: every
  /// row is zero.
  void Reset(size_t num_left, size_t num_right);

  size_t WordsPerRow() const { return words_; }

  /// Row of left vertex l, WordsPerRow() words: the caller sets bit r % 64
  /// of word r / 64 for each edge (l, r), r < num_right.
  uint64_t* Row(size_t l) { return rows_.data() + l * words_; }

  /// True iff a matching saturates every left vertex. False at once when
  /// there are more left than right vertices.
  bool HasLeftSaturatingMatching();

 private:
  /// Augments the matching from unmatched left vertex `root`; false iff no
  /// augmenting path starts there.
  bool Augment(uint32_t root);

  size_t num_left_ = 0;
  size_t num_right_ = 0;
  size_t words_ = 0;
  // num_left_ rows of words_ words; storage beyond them is spare capacity.
  std::vector<uint64_t> rows_;
  // Bit r set iff right vertex r is unmatched.
  std::vector<uint64_t> free_;
  // Bit r set iff the current search has reached right vertex r.
  std::vector<uint64_t> visited_;
  // Partners under the current matching; match_right_[r] is meaningful
  // only where r is matched, match_left_[l] only where l is.
  std::vector<uint32_t> match_left_;
  std::vector<uint32_t> match_right_;
  // via_[r]: the left vertex whose row reached r in the current search.
  std::vector<uint32_t> via_;
  std::vector<uint32_t> queue_;
};

}  // namespace neursc

#endif  // NEURSC_MATCHING_BIPARTITE_MATCHING_H_
