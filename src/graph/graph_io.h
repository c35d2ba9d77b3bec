#ifndef NEURSC_GRAPH_GRAPH_IO_H_
#define NEURSC_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "graph/graph.h"

namespace neursc {

/// Serialization in the text format used by the in-memory subgraph matching
/// benchmark suite (Sun & Luo, SIGMOD'20), which the paper's datasets ship
/// in:
///
///   t <num_vertices> <num_edges>
///   v <vertex_id> <label> <degree>
///   ...
///   e <src> <dst>
///   ...
///
/// Vertex ids must be dense 0..n-1; the degree column is redundant and is
/// validated on load. Readers size nothing from the header counts until
/// the file backs them, and reject labels >= kMaxLabels.
Result<Graph> ReadGraphFromStream(std::istream& in);
Result<Graph> ReadGraphFromFile(const std::string& path);
Result<Graph> ReadGraphFromString(const std::string& text);

Status WriteGraphToStream(const Graph& g, std::ostream& out);
Status WriteGraphToFile(const Graph& g, const std::string& path);
std::string WriteGraphToString(const Graph& g);

/// Compact binary serialization (little-endian, magic "NSCG" + version):
/// loads large graphs an order of magnitude faster than the text format.
/// Layout: magic(4) version(u32) |V|(u64) |E|(u64), labels (u32 each),
/// edges (u32 pairs with src < dst).
Status WriteGraphBinary(const Graph& g, const std::string& path);
Result<Graph> ReadGraphBinary(const std::string& path);

}  // namespace neursc

#endif  // NEURSC_GRAPH_GRAPH_IO_H_
