#include "hopcroft_karp.h"

#include <limits>

namespace neursc {

namespace {

constexpr size_t kUnmatched = std::numeric_limits<size_t>::max();
constexpr size_t kInfDist = std::numeric_limits<size_t>::max();

/// match_left[l] / match_right[r] hold the partner or kUnmatched.
struct HopcroftKarp {
  const BipartiteGraph& g;
  std::vector<size_t> match_left;
  std::vector<size_t> match_right;
  std::vector<size_t> dist;
  std::vector<size_t> queue;

  explicit HopcroftKarp(const BipartiteGraph& graph)
      : g(graph),
        match_left(graph.NumLeft(), kUnmatched),
        match_right(graph.NumRight(), kUnmatched),
        dist(graph.NumLeft(), kInfDist) {}

  bool Bfs() {
    // Each left vertex enters the queue at most once per phase, so a
    // vector read from `head` serves as the FIFO.
    queue.clear();
    for (size_t l = 0; l < g.NumLeft(); ++l) {
      if (match_left[l] == kUnmatched) {
        dist[l] = 0;
        queue.push_back(l);
      } else {
        dist[l] = kInfDist;
      }
    }
    bool found_augmenting = false;
    for (size_t head = 0; head < queue.size(); ++head) {
      size_t l = queue[head];
      for (size_t r : g.NeighborsOfLeft(l)) {
        size_t next = match_right[r];
        if (next == kUnmatched) {
          found_augmenting = true;
        } else if (dist[next] == kInfDist) {
          dist[next] = dist[l] + 1;
          queue.push_back(next);
        }
      }
    }
    return found_augmenting;
  }

  bool Dfs(size_t l) {
    for (size_t r : g.NeighborsOfLeft(l)) {
      size_t next = match_right[r];
      if (next == kUnmatched ||
          (dist[next] == dist[l] + 1 && Dfs(next))) {
        match_left[l] = r;
        match_right[r] = l;
        return true;
      }
    }
    dist[l] = kInfDist;
    return false;
  }

  size_t Run() {
    size_t matching = 0;
    while (Bfs()) {
      for (size_t l = 0; l < g.NumLeft(); ++l) {
        if (match_left[l] == kUnmatched && Dfs(l)) ++matching;
      }
    }
    return matching;
  }
};

}  // namespace

size_t MaximumBipartiteMatching(const BipartiteGraph& g) {
  return HopcroftKarp(g).Run();
}

bool HasLeftSaturatingMatching(const BipartiteGraph& g) {
  return MaximumBipartiteMatching(g) == g.NumLeft();
}

}  // namespace neursc
