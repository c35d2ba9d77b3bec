#ifndef NEURSC_GRAPH_STATS_H_
#define NEURSC_GRAPH_STATS_H_

#include <cstdint>

#include "graph/graph.h"

namespace neursc {

/// Shannon entropy of the label distribution over vertices (bits, natural
/// log as in the paper's Sec. 6.2 definition).
double LabelEntropy(const Graph& g);

/// Shannon entropy of the degree distribution over vertices.
double DegreeEntropy(const Graph& g);

/// Graph diameter: the longest shortest path over all vertex pairs,
/// computed by BFS from each vertex. For disconnected graphs returns the
/// largest finite eccentricity. Intended for small (query) graphs.
uint32_t Diameter(const Graph& g);

/// Eccentricity of `source`: max BFS distance to any reachable vertex.
uint32_t Eccentricity(const Graph& g, VertexId source);

}  // namespace neursc

#endif  // NEURSC_GRAPH_STATS_H_
