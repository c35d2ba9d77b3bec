#include "stream_readers.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>

#include <gtest/gtest.h>

#include "graph/graph_io.h"
#include "nn/serialize.h"
#include "test_util.h"

namespace neursc {
namespace oracle {

Status LoadParameters(const std::vector<Parameter*>& params,
                      std::istream& in) {
  std::string magic;
  std::string version;
  size_t count = 0;
  if (!(in >> magic >> version >> count) || magic != "neursc-params" ||
      version != "v1") {
    return Status::IOError("bad header");
  }
  if (count != params.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: file has " + std::to_string(count) +
        ", model has " + std::to_string(params.size()));
  }
  // Every value is parsed into `staged` first and committed only after the
  // whole checkpoint parsed, so a rejected load leaves `params` untouched.
  std::vector<std::vector<float>> staged(params.size());
  for (size_t k = 0; k < params.size(); ++k) {
    const Parameter* p = params[k];
    std::string tag;
    size_t rows = 0;
    size_t cols = 0;
    if (!(in >> tag >> rows >> cols) || tag != "param") {
      return Status::IOError("malformed param header");
    }
    if (rows != p->value.rows() || cols != p->value.cols()) {
      return Status::InvalidArgument("parameter shape mismatch");
    }
    // Token-wise strtof parse: reads both the hexfloat format written by
    // SaveParameters and legacy decimal checkpoints. strtof accepts
    // "inf"/"nan" spellings and saturates out-of-range decimals to
    // infinity, so the finite check below is what actually enforces the
    // no-NaN/Inf contract on every input.
    std::string token;
    staged[k].resize(p->value.size());
    for (size_t i = 0; i < p->value.size(); ++i) {
      if (!(in >> token)) {
        return Status::IOError("truncated parameter data");
      }
      char* end = nullptr;
      float v = std::strtof(token.c_str(), &end);
      if (end == token.c_str() || *end != '\0') {
        return Status::IOError("malformed parameter value '" + token + "'");
      }
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "non-finite parameter value '" + token + "' in checkpoint");
      }
      staged[k][i] = v;
    }
  }
  for (size_t k = 0; k < params.size(); ++k) {
    std::copy(staged[k].begin(), staged[k].end(), params[k]->value.data());
  }
  return Status::OK();
}

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

namespace {

constexpr char kBinaryMagic[4] = {'N', 'S', 'C', 'G'};
constexpr uint32_t kBinaryVersion = 1;

template <typename T>
bool ReadRaw(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

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

namespace {

/// Expects the same status code and message; on success, the same graph.
void ExpectSameRead(const Result<Graph>& got, const Result<Graph>& want,
                    const std::string& context) {
  EXPECT_EQ(got.status().code(), want.status().code()) << context;
  EXPECT_EQ(got.status().message(), want.status().message()) << context;
  if (got.ok() && want.ok()) {
    testing_util::ExpectSameGraph(*got, *want, context);
  }
}

}  // namespace

Status ExpectLoadMatchesOracle(const std::vector<Parameter*>& params,
                               const std::vector<Parameter*>& twin,
                               const std::string& input,
                               const std::string& context) {
  std::istringstream got_in(input);
  std::istringstream want_in(input);
  const Status got = neursc::LoadParameters(params, got_in);
  const Status want = oracle::LoadParameters(twin, want_in);
  EXPECT_EQ(got.code(), want.code()) << context;
  EXPECT_EQ(got.message(), want.message()) << context;
  EXPECT_EQ(params.size(), twin.size()) << context;
  for (size_t k = 0; k < std::min(params.size(), twin.size()); ++k) {
    const Matrix& a = params[k]->value;
    const Matrix& b = twin[k]->value;
    EXPECT_TRUE(a.size() == b.size() &&
                std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
                    0)
        << context << ": parameter " << k << " differs from the oracle's";
  }
  return got;
}

Result<Graph> ExpectTextReadMatchesOracle(const std::string& input,
                                          const std::string& context) {
  std::istringstream want_in(input);
  Result<Graph> got = neursc::ReadGraphFromString(input);
  ExpectSameRead(got, oracle::ReadGraphFromStream(want_in), context);
  return got;
}

Result<Graph> ExpectBinaryReadMatchesOracle(const std::string& path,
                                            const std::string& context) {
  Result<Graph> got = neursc::ReadGraphBinary(path);
  ExpectSameRead(got, oracle::ReadGraphBinary(path), context);
  return got;
}

}  // namespace oracle
}  // namespace neursc
