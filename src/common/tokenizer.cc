#include "common/tokenizer.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace neursc {

namespace {

bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

int LowerHexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

/// The bits of a normal float written as `[-]0x1[.h{1,6}]p±d{1,3}` with no
/// set bit beyond the float's 23 fraction bits, the shape "%a" gives a
/// float widened to double. Such a value is exact, so strtof returns these
/// same bits; false for any other token.
bool ParseExactHexFloat(std::string_view t, float* value) {
  size_t i = 0;
  uint32_t sign = 0;
  if (!t.empty() && t[0] == '-') {
    sign = 0x80000000u;
    i = 1;
  }
  if (t.size() - i < 6 || t.compare(i, 3, "0x1") != 0) return false;
  i += 3;
  uint32_t fraction = 0;
  int digits = 0;
  if (t[i] == '.') {
    for (++i; i < t.size() && digits <= 6; ++i, ++digits) {
      const int d = LowerHexDigit(t[i]);
      if (d < 0) break;
      fraction = fraction << 4 | static_cast<uint32_t>(d);
    }
    if (digits == 0 || digits > 6) return false;
  }
  // Six hex digits hold 24 bits; a set 24th bit would need rounding.
  fraction <<= 4 * (6 - digits);
  if ((fraction & 1) != 0) return false;
  if (t.size() - i < 3 || t[i] != 'p' || (t[i + 1] != '+' && t[i + 1] != '-') ||
      t.size() - i > 5) {
    return false;
  }
  int exponent = 0;
  for (size_t k = i + 2; k < t.size(); ++k) {
    if (t[k] < '0' || t[k] > '9') return false;
    exponent = exponent * 10 + (t[k] - '0');
  }
  if (t[i + 1] == '-') exponent = -exponent;
  if (exponent < -126 || exponent > 127) return false;
  const uint32_t bits =
      sign | static_cast<uint32_t>(exponent + 127) << 23 | fraction >> 1;
  std::memcpy(value, &bits, sizeof(bits));
  return true;
}

}  // namespace

Status ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  // file_size fails for a directory or a pipe; those read as a stream.
  std::error_code error;
  const uintmax_t size = std::filesystem::file_size(path, error);
  out->assign(error ? 0 : size, '\0');
  in.read(out->data(), static_cast<std::streamsize>(out->size()));
  out->resize(static_cast<size_t>(in.gcount()));
  if (in && in.peek() != std::ifstream::traits_type::eof()) {
    *out += ReadWholeStream(in);
  }
  return Status::OK();
}

std::string ReadWholeStream(std::istream& in) {
  if (!in) return {};
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

void Tokenizer::SkipSpace() {
  while (pos_ != end_ && IsSpace(*pos_)) ++pos_;
}

std::string_view Tokenizer::Next() {
  SkipSpace();
  const char* start = pos_;
  while (pos_ != end_ && !IsSpace(*pos_)) ++pos_;
  return std::string_view(start, static_cast<size_t>(pos_ - start));
}

bool Tokenizer::NextUnsigned(uint64_t* value) {
  SkipSpace();
  bool negative = false;
  if (pos_ != end_ && (*pos_ == '+' || *pos_ == '-')) {
    negative = *pos_ == '-';
    ++pos_;
  }
  uint64_t magnitude = 0;
  const auto [stop, error] = std::from_chars(pos_, end_, magnitude);
  if (stop == pos_) return false;
  pos_ = stop;
  if (error != std::errc()) return false;
  *value = negative ? 0 - magnitude : magnitude;
  return true;
}

bool ParseFloatToken(std::string_view token, float* value) {
  if (ParseExactHexFloat(token, value)) return true;
  const std::string copy(token);
  char* end = nullptr;
  *value = std::strtof(copy.c_str(), &end);
  return end != copy.c_str() && *end == '\0';
}

}  // namespace neursc
