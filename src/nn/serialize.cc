#include "nn/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/tokenizer.h"

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

namespace {

/// The one checkpoint parser: `text` is the whole checkpoint. Every value
/// is parsed into `staged` first and committed only after the whole
/// checkpoint parsed, so a rejected load leaves `params` untouched.
Status ParseParameters(const std::vector<Parameter*>& params,
                       std::string_view text) {
  Tokenizer in(text);
  const std::string_view magic = in.Next();
  const std::string_view version = in.Next();
  uint64_t count = 0;
  if (magic != "neursc-params" || version != "v1" ||
      !in.NextUnsigned(&count)) {
    return Status::IOError("bad header");
  }
  if (count != params.size()) {
    return Status::InvalidArgument(
        "parameter count mismatch: file has " + std::to_string(count) +
        ", model has " + std::to_string(params.size()));
  }
  size_t total = 0;
  for (const Parameter* p : params) total += p->value.size();
  std::vector<float> staged(total);
  float* next = staged.data();
  for (const Parameter* p : params) {
    uint64_t rows = 0;
    uint64_t cols = 0;
    if (in.Next() != "param" || !in.NextUnsigned(&rows) ||
        !in.NextUnsigned(&cols)) {
      return Status::IOError("malformed param header");
    }
    if (rows != p->value.rows() || cols != p->value.cols()) {
      return Status::InvalidArgument("parameter shape mismatch");
    }
    // Reads both the hexfloat format written by SaveParameters and legacy
    // decimal checkpoints. strtof accepts "inf"/"nan" spellings and
    // saturates out-of-range decimals to infinity, so the finite check
    // below is what actually enforces the no-NaN/Inf contract on every
    // input.
    for (size_t i = 0; i < p->value.size(); ++i) {
      std::string_view token;
      float v = 0.0f;
      const bool converted = in.NextFloat(&v, &token);
      if (token.empty()) return Status::IOError("truncated parameter data");
      if (!converted) {
        return Status::IOError("malformed parameter value '" +
                               std::string(token) + "'");
      }
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("non-finite parameter value '" +
                                       std::string(token) +
                                       "' in checkpoint");
      }
      *next++ = v;
    }
  }
  next = staged.data();
  for (Parameter* p : params) {
    std::copy(next, next + p->value.size(), p->value.data());
    next += p->value.size();
  }
  return Status::OK();
}

}  // namespace

Status LoadParameters(const std::vector<Parameter*>& params,
                      std::istream& in) {
  return ParseParameters(params, ReadWholeStream(in));
}

Status LoadParametersFromFile(const std::vector<Parameter*>& params,
                              const std::string& path) {
  std::string text;
  NEURSC_RETURN_IF_ERROR(ReadWholeFile(path, &text));
  return ParseParameters(params, text);
}

}  // namespace neursc
