#ifndef NEURSC_COMMON_TOKENIZER_H_
#define NEURSC_COMMON_TOKENIZER_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/status.h"

namespace neursc {

/// Reads the whole file at `path` into `out` with one read sized from the
/// file. IOError "cannot open <path>" if the file cannot be opened; a file
/// that opens but cannot be read (a directory) reads as empty.
Status ReadWholeFile(const std::string& path, std::string* out);

/// The rest of `in`, copied out of its buffer; empty if `in` has failed.
std::string ReadWholeStream(std::istream& in);

/// Splits an in-memory text on whitespace exactly as `std::istream`'s
/// `operator>>` does in the "C" locale, so a reader written against a
/// stream keeps its outcome on every input: the whitespace bytes are
/// ' ', '\t', '\n', '\v', '\f' and '\r', and every other byte (NUL
/// included) belongs to a token. The text must outlive the tokenizer and
/// every view it returns.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()) {}

  /// The next run of non-whitespace bytes; empty at the end of the text
  /// (`in >> std::string`).
  std::string_view Next();

  /// `in >> uint64_t`: skips whitespace, reads an optional '+' or '-' and
  /// the longest run of decimal digits after it, and stops there, so
  /// "12ab" gives 12 and leaves "ab" as the next token. False if there is
  /// no digit or the digits overflow 64 bits; '-' negates modulo 2^64.
  bool NextUnsigned(uint64_t* value);

  /// `ParseFloatToken(Next())` in one pass for the common token: a token
  /// in the exact "%a" shape that ParseFloatToken converts directly, and
  /// that whitespace or the end of the text follows, is converted while
  /// it is scanned. Every other token is split off with Next() and given
  /// to ParseFloatToken. Sets `*token` to the token (empty at the end of
  /// the text) and returns what ParseFloatToken would.
  bool NextFloat(float* value, std::string_view* token);

 private:
  void SkipSpace();

  const char* pos_;
  const char* end_;
};

/// Converts a whole token as `std::strtof` does on a NUL-terminated copy
/// of it: false if strtof would convert nothing or stop before the copy's
/// first NUL; overflow gives ±inf and underflow 0 or a subnormal, as
/// strtof does. A token in the shape "%a" writes for a normal float
/// (`[-]0x1[.h{1,6}]p±d{1,3}`, lowercase, exactly representable) is
/// converted directly into the float's bits, by the same scanner that
/// Tokenizer::NextFloat runs; every other token goes to strtof itself.
bool ParseFloatToken(std::string_view token, float* value);

}  // namespace neursc

#endif  // NEURSC_COMMON_TOKENIZER_H_
