#include "graph/graph_io.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/tokenizer.h"

namespace neursc {

namespace {

/// The one text-format parser: `text` is the whole graph.
Result<Graph> ParseGraph(std::string_view text) {
  Tokenizer in(text);
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  if (in.Next() != "t" || !in.NextUnsigned(&num_vertices) ||
      !in.NextUnsigned(&num_edges)) {
    return Status::IOError("missing or malformed 't' header line");
  }
  // The header counts are unchecked until the lines they announce have
  // been read, so nothing is sized from them.
  GraphBuilder builder;
  std::vector<uint64_t> declared_degree;
  size_t edges_seen = 0;
  for (std::string_view tag = in.Next(); !tag.empty(); tag = in.Next()) {
    if (tag == "v") {
      uint64_t id = 0;
      uint64_t label = 0;
      uint64_t degree = 0;
      if (!in.NextUnsigned(&id) || !in.NextUnsigned(&label) ||
          !in.NextUnsigned(&degree)) {
        return Status::IOError("malformed 'v' line");
      }
      if (id != declared_degree.size()) {
        return Status::IOError("vertex ids must be dense and in order");
      }
      if (id >= num_vertices) {
        return Status::IOError("header declared " +
                               std::to_string(num_vertices) +
                               " vertices, found more");
      }
      if (label >= kMaxLabels) {
        return Status::InvalidArgument("label " + std::to_string(label) +
                                       " exceeds the label cap " +
                                       std::to_string(kMaxLabels));
      }
      builder.AddVertex(static_cast<Label>(label));
      declared_degree.push_back(degree);
    } else if (tag == "e") {
      uint64_t u = 0;
      uint64_t v = 0;
      if (!in.NextUnsigned(&u) || !in.NextUnsigned(&v)) {
        return Status::IOError("malformed 'e' line");
      }
      if (u >= builder.NumVertices() || v >= builder.NumVertices()) {
        return Status::InvalidArgument("edge endpoint out of range");
      }
      Status st = builder.AddEdge(static_cast<VertexId>(u),
                                  static_cast<VertexId>(v));
      if (!st.ok()) return st;
      ++edges_seen;
    } else {
      return Status::IOError("unexpected line tag '" + std::string(tag) +
                             "'");
    }
  }
  if (declared_degree.size() != num_vertices) {
    return Status::IOError("header declared " + std::to_string(num_vertices) +
                           " vertices, found " +
                           std::to_string(declared_degree.size()));
  }
  if (edges_seen != num_edges) {
    return Status::IOError("header declared " + std::to_string(num_edges) +
                           " edges, found " + std::to_string(edges_seen));
  }
  auto built = builder.Build();
  if (!built.ok()) return built.status();
  Graph g = std::move(built).value();
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(static_cast<VertexId>(v)) != declared_degree[v]) {
      return Status::IOError("declared degree mismatch at vertex " +
                             std::to_string(v));
    }
  }
  return g;
}

}  // namespace

Result<Graph> ReadGraphFromStream(std::istream& in) {
  return ParseGraph(ReadWholeStream(in));
}

Result<Graph> ReadGraphFromFile(const std::string& path) {
  std::string text;
  NEURSC_RETURN_IF_ERROR(ReadWholeFile(path, &text));
  return ParseGraph(text);
}

Result<Graph> ReadGraphFromString(const std::string& text) {
  return ParseGraph(text);
}

Status WriteGraphToStream(const Graph& g, std::ostream& out) {
  out << "t " << g.NumVertices() << " " << g.NumEdges() << "\n";
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    out << "v " << v << " " << g.GetLabel(static_cast<VertexId>(v)) << " "
        << g.Degree(static_cast<VertexId>(v)) << "\n";
  }
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(static_cast<VertexId>(v))) {
      if (v < w) out << "e " << v << " " << w << "\n";
    }
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Status WriteGraphToFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  return WriteGraphToStream(g, out);
}

std::string WriteGraphToString(const Graph& g) {
  std::ostringstream out;
  WriteGraphToStream(g, out);
  return out.str();
}

namespace {

constexpr char kBinaryMagic[4] = {'N', 'S', 'C', 'G'};
constexpr uint32_t kBinaryVersion = 1;

template <typename T>
void WriteRaw(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

}  // namespace

Status WriteGraphBinary(const Graph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path);
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  WriteRaw(out, kBinaryVersion);
  WriteRaw(out, static_cast<uint64_t>(g.NumVertices()));
  WriteRaw(out, static_cast<uint64_t>(g.NumEdges()));
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    WriteRaw(out, static_cast<uint32_t>(g.GetLabel(static_cast<VertexId>(v))));
  }
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(static_cast<VertexId>(v))) {
      if (v < w) {
        WriteRaw(out, static_cast<uint32_t>(v));
        WriteRaw(out, static_cast<uint32_t>(w));
      }
    }
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Result<Graph> ReadGraphBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  // magic(4) version(u32) |V|(u64) |E|(u64), checked in file order.
  char header[24] = {};
  in.read(header, sizeof(header));
  const size_t header_bytes = static_cast<size_t>(in.gcount());
  if (header_bytes < 4 ||
      std::memcmp(header, kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    return Status::IOError("bad magic (not a NSCG binary graph)");
  }
  uint32_t version = 0;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  std::memcpy(&version, header + 4, sizeof(version));
  if (header_bytes < 8 || version != kBinaryVersion) {
    return Status::IOError("unsupported binary graph version");
  }
  if (header_bytes < sizeof(header)) {
    return Status::IOError("truncated header");
  }
  std::memcpy(&num_vertices, header + 8, sizeof(num_vertices));
  std::memcpy(&num_edges, header + 16, sizeof(num_edges));
  // Check the counts against the bytes that follow before reserving for
  // them: 4 per label, 8 per edge.
  in.seekg(0, std::ios::end);
  const std::streamoff body_bytes =
      in.tellg() - static_cast<std::streamoff>(sizeof(header));
  in.seekg(sizeof(header));
  if (!in || body_bytes < 0) return Status::IOError("cannot size file body");
  const uint64_t remaining = static_cast<uint64_t>(body_bytes);
  if (num_vertices > kInvalidVertex || num_vertices > remaining / 4 ||
      num_edges > (remaining - 4 * num_vertices) / 8) {
    return Status::IOError("header declares " + std::to_string(num_vertices) +
                           " vertices and " + std::to_string(num_edges) +
                           " edges, more than the file's " +
                           std::to_string(remaining) + " body bytes hold");
  }
  // The labels, then the edges' endpoint pairs, in one read.
  std::vector<uint32_t> body(num_vertices + 2 * num_edges);
  in.read(reinterpret_cast<char*>(body.data()),
          static_cast<std::streamsize>(body.size() * sizeof(uint32_t)));
  const uint64_t words_read = static_cast<uint64_t>(in.gcount()) / 4;
  if (words_read < num_vertices) return Status::IOError("truncated labels");
  if (words_read < body.size()) return Status::IOError("truncated edges");
  GraphBuilder builder;
  builder.Reserve(num_vertices, num_edges);
  for (uint64_t v = 0; v < num_vertices; ++v) builder.AddVertex(body[v]);
  for (uint64_t e = 0; e < num_edges; ++e) {
    const uint32_t* ends = body.data() + num_vertices + 2 * e;
    NEURSC_RETURN_IF_ERROR(builder.AddEdge(ends[0], ends[1]));
  }
  return builder.Build();
}

}  // namespace neursc
