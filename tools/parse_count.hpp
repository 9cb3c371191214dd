// Numeric flag parsing shared by the command-line tools.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <limits>

namespace scv::cli {

/// Parses a count made of decimal digits only that fits in T: no sign, no
/// leading space, no trailing characters, no overflow.
template <class T>
[[nodiscard]] bool parse_count(const char* v, T& out) {
  if (v == nullptr || *v < '0' || *v > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (*end != '\0' || errno == ERANGE || n > std::numeric_limits<T>::max()) {
    return false;
  }
  out = static_cast<T>(n);
  return true;
}

}  // namespace scv::cli
