#include "nn/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace neursc {

namespace {

/// Shortest exact hexfloat of v ("%a"), e.g. "0x1.5p-3". Round-trips
/// bit-for-bit through strtof: the float widens to double losslessly, the
/// hex digits encode that double exactly, and narrowing back cannot round.
std::string ExactFloatToken(float v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
  return buf;
}

}  // namespace

Status SaveParameters(const std::vector<Parameter*>& params,
                      std::ostream& out) {
  out << "neursc-params v1 " << params.size() << "\n";
  for (const Parameter* p : params) {
    out << "param " << p->value.rows() << " " << p->value.cols() << "\n";
    for (size_t i = 0; i < p->value.size(); ++i) {
      float v = p->value.data()[i];
      if (!std::isfinite(v)) {
        return Status::InvalidArgument(
            "refusing to save non-finite parameter value");
      }
      out << ExactFloatToken(v) << (i + 1 == p->value.size() ? "\n" : " ");
    }
    if (p->value.size() == 0) out << "\n";
  }
  if (!out) return Status::IOError("write failed");
  return Status::OK();
}

Status SaveParametersToFile(const std::vector<Parameter*>& params,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  return SaveParameters(params, out);
}

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

Status LoadParametersFromFile(const std::vector<Parameter*>& params,
                              const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  return LoadParameters(params, in);
}

}  // namespace neursc
