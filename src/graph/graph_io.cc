#include "graph/graph_io.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace neursc {

Result<Graph> ReadGraphFromStream(std::istream& in) {
  std::string tag;
  size_t num_vertices = 0;
  size_t num_edges = 0;
  if (!(in >> tag) || tag != "t" || !(in >> num_vertices >> num_edges)) {
    return Status::IOError("missing or malformed 't' header line");
  }
  // The header counts are unchecked until the lines they announce have
  // been read, so nothing is sized from them.
  GraphBuilder builder;
  std::vector<uint64_t> declared_degree;
  size_t edges_seen = 0;
  while (in >> tag) {
    if (tag == "v") {
      uint64_t id = 0;
      uint64_t label = 0;
      uint64_t degree = 0;
      if (!(in >> id >> label >> degree)) {
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
      if (!(in >> u >> v)) {
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
      return Status::IOError("unexpected line tag '" + tag + "'");
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

Result<Graph> ReadGraphFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return ReadGraphFromStream(in);
}

Result<Graph> ReadGraphFromString(const std::string& text) {
  std::istringstream in(text);
  return ReadGraphFromStream(in);
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

template <typename T>
bool ReadRaw(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
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
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    return Status::IOError("bad magic (not a NSCG binary graph)");
  }
  uint32_t version = 0;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  if (!ReadRaw(in, &version) || version != kBinaryVersion) {
    return Status::IOError("unsupported binary graph version");
  }
  if (!ReadRaw(in, &num_vertices) || !ReadRaw(in, &num_edges)) {
    return Status::IOError("truncated header");
  }
  // Check the counts against the bytes that follow before reserving for
  // them: 4 per label, 8 per edge.
  const std::streampos body_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff body_bytes = in.tellg() - body_start;
  in.seekg(body_start);
  if (!in || body_bytes < 0) return Status::IOError("cannot size file body");
  const uint64_t remaining = static_cast<uint64_t>(body_bytes);
  if (num_vertices > kInvalidVertex || num_vertices > remaining / 4 ||
      num_edges > (remaining - 4 * num_vertices) / 8) {
    return Status::IOError("header declares " + std::to_string(num_vertices) +
                           " vertices and " + std::to_string(num_edges) +
                           " edges, more than the file's " +
                           std::to_string(remaining) + " body bytes hold");
  }
  GraphBuilder builder;
  builder.Reserve(num_vertices, num_edges);
  for (uint64_t v = 0; v < num_vertices; ++v) {
    uint32_t label = 0;
    if (!ReadRaw(in, &label)) return Status::IOError("truncated labels");
    builder.AddVertex(label);
  }
  for (uint64_t e = 0; e < num_edges; ++e) {
    uint32_t a = 0;
    uint32_t b = 0;
    if (!ReadRaw(in, &a) || !ReadRaw(in, &b)) {
      return Status::IOError("truncated edges");
    }
    NEURSC_RETURN_IF_ERROR(builder.AddEdge(a, b));
  }
  return builder.Build();
}

std::string ToDot(const Graph& g, const std::string& name) {
  static const char* kPalette[] = {"#4C72B0", "#DD8452", "#55A868",
                                   "#C44E52", "#8172B3", "#937860",
                                   "#DA8BC3", "#8C8C8C"};
  std::ostringstream out;
  out << "graph " << name << " {\n";
  out << "  node [style=filled, fontcolor=white];\n";
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    Label l = g.GetLabel(static_cast<VertexId>(v));
    out << "  v" << v << " [label=\"" << v << ":" << l << "\", fillcolor=\""
        << kPalette[l % 8] << "\"];\n";
  }
  for (size_t v = 0; v < g.NumVertices(); ++v) {
    for (VertexId w : g.Neighbors(static_cast<VertexId>(v))) {
      if (v < w) out << "  v" << v << " -- v" << w << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace neursc
