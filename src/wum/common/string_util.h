// Small string helpers used across the library.

#ifndef WUM_COMMON_STRING_UTIL_H_
#define WUM_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "wum/common/result.h"

namespace wum {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string_view> SplitString(std::string_view input,
                                          char delimiter);

/// True for the ASCII whitespace bytes: space, \t, \n, \v, \f, \r
/// (std::isspace in the "C" locale, without the locale lookup).
inline bool IsAsciiWhitespace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Strips ASCII whitespace from both ends. Inline: the CLF parser strips
/// every line.
inline std::string_view StripWhitespace(std::string_view input) {
  std::size_t begin = 0;
  while (begin < input.size() && IsAsciiWhitespace(input[begin])) ++begin;
  std::size_t end = input.size();
  while (end > begin && IsAsciiWhitespace(input[end - 1])) --end;
  return input.substr(begin, end - begin);
}

/// True iff `text` begins with `prefix` / ends with `suffix`. Inline:
/// both sit on the per-record hot path (URL-to-page mapping).
inline bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}
inline bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

/// ASCII lower-casing (locale independent).
std::string AsciiToLower(std::string_view text);

/// Parses a base-10 signed/unsigned integer occupying the whole string.
Result<std::int64_t> ParseInt64(std::string_view text);
Result<std::uint64_t> ParseUint64(std::string_view text);

/// Parses a floating point number occupying the whole string.
Result<double> ParseDouble(std::string_view text);

/// Joins `parts` with `separator`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view separator);

}  // namespace wum

#endif  // WUM_COMMON_STRING_UTIL_H_
