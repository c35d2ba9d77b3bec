#include "wl_refinement.h"

#include <algorithm>
#include <map>
#include <utility>

namespace neursc {

namespace {

/// One refinement round over an adjacency structure given as neighbor
/// lists; returns the number of distinct colors after the round.
size_t RefineOnce(const std::vector<std::vector<uint32_t>>& adjacency,
                  std::vector<uint32_t>* colors) {
  const size_t n = adjacency.size();
  // Signature of v: (old color, sorted neighbor colors).
  std::vector<std::pair<std::vector<uint32_t>, size_t>> signatures(n);
  for (size_t v = 0; v < n; ++v) {
    std::vector<uint32_t> sig;
    sig.reserve(adjacency[v].size() + 1);
    sig.push_back((*colors)[v]);
    for (uint32_t w : adjacency[v]) sig.push_back((*colors)[w]);
    std::sort(sig.begin() + 1, sig.end());
    signatures[v] = {std::move(sig), v};
  }
  // Canonical dense ids in signature order.
  std::map<std::vector<uint32_t>, uint32_t> palette;
  for (const auto& [sig, v] : signatures) {
    auto [it, inserted] =
        palette.emplace(sig, static_cast<uint32_t>(palette.size()));
    (*colors)[v] = it->second;
  }
  return palette.size();
}

std::vector<uint32_t> RunWl(
    const std::vector<std::vector<uint32_t>>& adjacency,
    std::vector<uint32_t> colors, int max_rounds) {
  size_t distinct = 0;
  {
    // Canonicalize the initial coloring too.
    std::map<uint32_t, uint32_t> palette;
    for (uint32_t& c : colors) {
      auto [it, inserted] =
          palette.emplace(c, static_cast<uint32_t>(palette.size()));
      c = it->second;
    }
    distinct = palette.size();
  }
  int round = 0;
  while (max_rounds <= 0 || round < max_rounds) {
    ++round;
    size_t next = RefineOnce(adjacency, &colors);
    if (next == distinct) break;  // stable partition
    distinct = next;
    if (distinct == adjacency.size()) break;  // fully discrete
  }
  return colors;
}

std::vector<std::vector<uint32_t>> AdjacencyOf(const Graph& g,
                                               uint32_t offset = 0) {
  std::vector<std::vector<uint32_t>> adjacency(g.NumVertices());
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(static_cast<VertexId>(v))) {
      adjacency[v].push_back(offset + w);
    }
  }
  return adjacency;
}

}  // namespace

std::vector<uint32_t> WlColors(const Graph& g, int max_rounds) {
  std::vector<uint32_t> colors(g.NumVertices());
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    colors[v] = g.GetLabel(static_cast<VertexId>(v));
  }
  return RunWl(AdjacencyOf(g), std::move(colors), max_rounds);
}

std::pair<WlSignature, WlSignature> JointWlSignatures(const Graph& g1,
                                                      const Graph& g2,
                                                      int max_rounds) {
  const size_t n1 = g1.NumVertices();
  const size_t n2 = g2.NumVertices();
  std::vector<std::vector<uint32_t>> adjacency = AdjacencyOf(g1);
  auto adjacency2 = AdjacencyOf(g2, static_cast<uint32_t>(n1));
  adjacency.insert(adjacency.end(), adjacency2.begin(), adjacency2.end());

  std::vector<uint32_t> colors(n1 + n2);
  for (size_t v = 0; v < n1; ++v) {
    colors[v] = g1.GetLabel(static_cast<VertexId>(v));
  }
  for (size_t v = 0; v < n2; ++v) {
    colors[n1 + v] = g2.GetLabel(static_cast<VertexId>(v));
  }
  colors = RunWl(adjacency, std::move(colors), max_rounds);

  WlSignature s1;
  WlSignature s2;
  s1.histogram.assign(colors.begin(), colors.begin() + n1);
  s2.histogram.assign(colors.begin() + n1, colors.end());
  std::sort(s1.histogram.begin(), s1.histogram.end());
  std::sort(s2.histogram.begin(), s2.histogram.end());
  return {std::move(s1), std::move(s2)};
}

bool WlDistinguishes(const Graph& g1, const Graph& g2, int max_rounds) {
  auto [s1, s2] = JointWlSignatures(g1, g2, max_rounds);
  return !(s1 == s2);
}

}  // namespace neursc
