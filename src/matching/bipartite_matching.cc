#include "matching/bipartite_matching.h"

#include <algorithm>
#include <bit>

namespace neursc {

void SemiPerfectMatcher::Reset(size_t num_left, size_t num_right) {
  num_left_ = num_left;
  num_right_ = num_right;
  words_ = (num_right + 63) / 64;
  const size_t row_words = num_left * words_;
  if (rows_.size() < row_words) rows_.resize(row_words);
  std::fill_n(rows_.begin(), row_words, 0);
}

bool SemiPerfectMatcher::HasLeftSaturatingMatching() {
  if (num_left_ > num_right_) return false;
  if (free_.size() < words_) {
    free_.resize(words_);
    visited_.resize(words_);
  }
  if (match_left_.size() < num_left_) {
    match_left_.resize(num_left_);
    queue_.resize(num_left_);
  }
  if (match_right_.size() < num_right_) {
    match_right_.resize(num_right_);
    via_.resize(num_right_);
  }
  // Bits past num_right_ are marked free too, but no row reaches them.
  std::fill_n(free_.begin(), words_, ~uint64_t{0});
  for (size_t l = 0; l < num_left_; ++l) {
    if (!Augment(static_cast<uint32_t>(l))) return false;
  }
  return true;
}

bool SemiPerfectMatcher::Augment(uint32_t root) {
  // Alternating BFS from root: a left vertex's row reaches right vertices;
  // a free one ends the search, a matched one enqueues its partner. The
  // first `words_` words of visited_ and free_ are this call's.
  std::fill_n(visited_.begin(), words_, 0);
  size_t head = 0;
  size_t tail = 0;
  queue_[tail++] = root;
  while (head < tail) {
    const uint32_t l = queue_[head++];
    const uint64_t* row = Row(l);
    for (size_t w = 0; w < words_; ++w) {
      uint64_t reach = row[w] & ~visited_[w];
      if (reach == 0) continue;
      if (const uint64_t open = reach & free_[w]; open != 0) {
        // Flip the path back to the root: r takes the left vertex that
        // reached it, which gives up its old partner to the next step.
        uint32_t r = static_cast<uint32_t>(w * 64 + std::countr_zero(open));
        free_[w] &= ~(uint64_t{1} << (r % 64));
        for (uint32_t from = l;; from = via_[r]) {
          const uint32_t previous = match_left_[from];
          match_left_[from] = r;
          match_right_[r] = from;
          if (from == root) return true;
          r = previous;
        }
      }
      visited_[w] |= reach;
      // Every right vertex in `reach` is matched: queue its partner. Each
      // left vertex other than the root is the partner of one right
      // vertex, so it enters the queue at most once.
      for (; reach != 0; reach &= reach - 1) {
        const uint32_t r =
            static_cast<uint32_t>(w * 64 + std::countr_zero(reach));
        via_[r] = l;
        queue_[tail++] = match_right_[r];
      }
    }
  }
  return false;
}

}  // namespace neursc
