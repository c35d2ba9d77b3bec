#include "matching/bipartite_matching.h"

#include <limits>

namespace neursc {

namespace {

constexpr size_t kUnmatched = std::numeric_limits<size_t>::max();
constexpr size_t kInfDist = std::numeric_limits<size_t>::max();

/// Hopcroft-Karp over the arrays of a MatchingScratch. match_left[l] /
/// match_right[r] hold the partner or kUnmatched.
struct HopcroftKarp {
  const BipartiteGraph& g;
  std::vector<size_t>& match_left;
  std::vector<size_t>& match_right;
  std::vector<size_t>& dist;
  std::vector<size_t>& queue;

  HopcroftKarp(const BipartiteGraph& graph, MatchingScratch& scratch)
      : g(graph),
        match_left(scratch.match_left),
        match_right(scratch.match_right),
        dist(scratch.dist),
        queue(scratch.queue) {
    match_left.assign(graph.NumLeft(), kUnmatched);
    match_right.assign(graph.NumRight(), kUnmatched);
    dist.assign(graph.NumLeft(), kInfDist);
  }

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

size_t MaximumBipartiteMatching(const BipartiteGraph& g,
                                MatchingScratch& scratch) {
  return HopcroftKarp(g, scratch).Run();
}

size_t MaximumBipartiteMatching(const BipartiteGraph& g) {
  MatchingScratch scratch;
  return MaximumBipartiteMatching(g, scratch);
}

bool HasLeftSaturatingMatching(const BipartiteGraph& g,
                               MatchingScratch& scratch) {
  if (g.NumLeft() > g.NumRight()) return false;
  // Quick reject: a left vertex without edges can never be matched.
  for (size_t l = 0; l < g.NumLeft(); ++l) {
    if (g.NeighborsOfLeft(l).empty()) return false;
  }
  return MaximumBipartiteMatching(g, scratch) == g.NumLeft();
}

bool HasLeftSaturatingMatching(const BipartiteGraph& g) {
  MatchingScratch scratch;
  return HasLeftSaturatingMatching(g, scratch);
}

}  // namespace neursc
