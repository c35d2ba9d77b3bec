#include "graph/stats.h"

#include <cmath>
#include <queue>
#include <unordered_map>
#include <vector>

namespace neursc {

namespace {

double Entropy(const std::unordered_map<uint64_t, size_t>& histogram,
               size_t total) {
  if (total == 0) return 0.0;
  double h = 0.0;
  for (const auto& [_, count] : histogram) {
    double p = static_cast<double>(count) / static_cast<double>(total);
    h -= p * std::log(p);
  }
  return h;
}

}  // namespace

double LabelEntropy(const Graph& g) {
  std::unordered_map<uint64_t, size_t> hist;
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    ++hist[g.GetLabel(static_cast<VertexId>(v))];
  }
  return Entropy(hist, g.NumVertices());
}

double DegreeEntropy(const Graph& g) {
  std::unordered_map<uint64_t, size_t> hist;
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    ++hist[g.Degree(static_cast<VertexId>(v))];
  }
  return Entropy(hist, g.NumVertices());
}

uint32_t Eccentricity(const Graph& g, VertexId source) {
  std::vector<uint32_t> dist(g.NumVertices(), UINT32_MAX);
  std::queue<VertexId> queue;
  dist[source] = 0;
  queue.push(source);
  uint32_t furthest = 0;
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop();
    furthest = std::max(furthest, dist[v]);
    for (VertexId w : g.Neighbors(v)) {
      if (dist[w] == UINT32_MAX) {
        dist[w] = dist[v] + 1;
        queue.push(w);
      }
    }
  }
  return furthest;
}

uint32_t Diameter(const Graph& g) {
  uint32_t diameter = 0;
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    diameter = std::max(diameter, Eccentricity(g, static_cast<VertexId>(v)));
  }
  return diameter;
}

}  // namespace neursc
