// Strict numeric argument parsing shared by the command-line tools.
#pragma once

#include <charconv>
#include <cstring>
#include <system_error>

namespace rair::cli {

/// Parses `text` as a non-negative int. The whole token must be consumed:
/// "abc", "4x", "-1" and out-of-range values are rejected (false, `out`
/// untouched).
inline bool parseCount(const char* text, int& out) {
  const char* end = text + std::strlen(text);
  int value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < 0) return false;
  out = value;
  return true;
}

}  // namespace rair::cli
