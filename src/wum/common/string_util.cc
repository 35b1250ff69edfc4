#include "wum/common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>

namespace wum {

std::vector<std::string_view> SplitString(std::string_view input,
                                          char delimiter) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.push_back(input.substr(start));
      break;
    }
    parts.push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

std::string AsciiToLower(std::string_view text) {
  std::string result(text);
  for (char& c : result) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return result;
}

Result<std::int64_t> ParseInt64(std::string_view text) {
  std::int64_t value = 0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value, 10);
  if (ec != std::errc() || ptr != end || text.empty()) {
    return Status::ParseError("not an int64: '" + std::string(text) + "'");
  }
  return value;
}

Result<std::uint64_t> ParseUint64(std::string_view text) {
  std::uint64_t value = 0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value, 10);
  if (ec != std::errc() || ptr != end || text.empty()) {
    return Status::ParseError("not a uint64: '" + std::string(text) + "'");
  }
  return value;
}

Result<double> ParseDouble(std::string_view text) {
  if (text.empty()) return Status::ParseError("empty double");
  // std::from_chars for double is unreliable across standard libraries;
  // strtod on a NUL-terminated copy is portable.
  std::string copy(text);
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(copy.c_str(), &end);
  if (errno == ERANGE || end != copy.c_str() + copy.size()) {
    return Status::ParseError("not a double: '" + copy + "'");
  }
  return value;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view separator) {
  std::string result;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) result += separator;
    result += parts[i];
  }
  return result;
}

}  // namespace wum
