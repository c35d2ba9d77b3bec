#include "common/tokenizer.h"

#include <array>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace neursc {

namespace {

/// A byte's class for the tokenizer's loops, looked up rather than
/// compared, because the digits of a hexfloat mantissa fall at random on
/// either side of a range test: the value of a lowercase hex digit (0-15,
/// so '0'-'9' read as decimal digits too), kSpace for the six whitespace
/// bytes, kOther for every other byte.
constexpr int8_t kSpace = -2;
constexpr int8_t kOther = -1;
constexpr std::array<int8_t, 256> kByteClass = [] {
  std::array<int8_t, 256> table{};
  table.fill(kOther);
  for (char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    table[static_cast<unsigned char>(c)] = kSpace;
  }
  for (int d = 0; d < 10; ++d) table['0' + d] = static_cast<int8_t>(d);
  for (int d = 0; d < 6; ++d) table['a' + d] = static_cast<int8_t>(10 + d);
  return table;
}();

int ByteClass(char c) { return kByteClass[static_cast<unsigned char>(c)]; }

bool IsSpace(char c) { return ByteClass(c) == kSpace; }

/// Scans the bytes from `p` for the shape "%a" writes for a normal float
/// widened to double, `[-]0x1[.h{1,6}]p±d{1,3}` with lowercase hex digits
/// and no set bit beyond the float's 23 fraction bits, and converts it in
/// the same pass. Such a value is exact, so strtof gives these same bits.
/// Returns the end of the shape, or nullptr if the bytes do not start
/// with it; whatever follows the shape is the caller's to check.
const char* ScanExactHexFloat(const char* p, const char* end, float* value) {
  // The shortest shape is "0x1p+0".
  if (end - p < 6) return nullptr;
  const uint32_t negative = *p == '-';
  p += negative;
  if (end - p < 6 || p[0] != '0' || p[1] != 'x' || p[2] != '1') {
    return nullptr;
  }
  p += 3;
  uint32_t fraction = 0;
  int digits = 0;
  if (*p == '.') {
    ++p;
    // A seventh digit stops the scan here and fails the 'p' test below.
    for (int d; digits < 6 && p != end && (d = ByteClass(*p)) >= 0;
         ++p, ++digits) {
      fraction = fraction << 4 | static_cast<uint32_t>(d);
    }
    if (digits == 0) return nullptr;
  }
  // Six hex digits hold 24 bits; a set 24th bit would need rounding.
  fraction <<= 4 * (6 - digits);
  if ((fraction & 1) != 0) return nullptr;
  if (end - p < 3 || p[0] != 'p') return nullptr;
  // '+' and '-' are two apart: their offset from '+' is 0 or 2.
  const uint32_t sign_offset =
      static_cast<unsigned char>(p[1]) - uint32_t{'+'};
  if ((sign_offset & ~2u) != 0) return nullptr;
  const int exponent_negative = static_cast<int>(sign_offset >> 1);
  p += 2;
  int exponent = 0;
  int exponent_digits = 0;
  // A fourth digit stops the scan here, where the caller sees a byte that
  // does not end a token.
  for (unsigned d; exponent_digits < 3 && p != end &&
                   (d = static_cast<unsigned>(ByteClass(*p))) < 10;
       ++p, ++exponent_digits) {
    exponent = exponent * 10 + static_cast<int>(d);
  }
  if (exponent_digits == 0) return nullptr;
  exponent = (exponent ^ -exponent_negative) + exponent_negative;
  // Subnormal and overflowing exponents go to strtof.
  if (exponent < -126 || exponent > 127) return nullptr;
  const uint32_t bits = negative << 31 |
                        static_cast<uint32_t>(exponent + 127) << 23 |
                        fraction >> 1;
  std::memcpy(value, &bits, sizeof(bits));
  return p;
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

// The loops run on local copies of pos_: a char read may alias the member
// itself, so stepping the member would store and reload it every byte.
void Tokenizer::SkipSpace() {
  const char* p = pos_;
  while (p != end_ && IsSpace(*p)) ++p;
  pos_ = p;
}

std::string_view Tokenizer::Next() {
  SkipSpace();
  const char* start = pos_;
  const char* p = start;
  while (p != end_ && !IsSpace(*p)) ++p;
  pos_ = p;
  return std::string_view(start, static_cast<size_t>(p - start));
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

bool Tokenizer::NextFloat(float* value, std::string_view* token) {
  SkipSpace();
  const char* stop = ScanExactHexFloat(pos_, end_, value);
  if (stop != nullptr && (stop == end_ || IsSpace(*stop))) {
    *token = std::string_view(pos_, static_cast<size_t>(stop - pos_));
    pos_ = stop;
    return true;
  }
  *token = Next();
  return ParseFloatToken(*token, value);
}

bool ParseFloatToken(std::string_view token, float* value) {
  const char* token_end = token.data() + token.size();
  if (!token.empty() &&
      ScanExactHexFloat(token.data(), token_end, value) == token_end) {
    return true;
  }
  const std::string copy(token);
  char* end = nullptr;
  *value = std::strtof(copy.c_str(), &end);
  return end != copy.c_str() && *end == '\0';
}

}  // namespace neursc
