// Command-line flag helpers shared by the dpclustx tools and the worker
// lifecycle (service/worker.h). A bad value is a usage error: the tool
// prints one line naming the flag and exits 2, the same status an unknown
// flag gets.

#ifndef DPCLUSTX_COMMON_FLAGS_H_
#define DPCLUSTX_COMMON_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

namespace dpclustx {

/// The value after flag `name` at argv[*i], advancing *i past it. Exits 2
/// when the flag is last on the command line.
inline const char* FlagValueOrExit(int argc, char** argv, int* i,
                                   const char* name) {
  if (*i + 1 >= argc) {
    std::cerr << name << " needs a value\n";
    std::exit(2);
  }
  return argv[++*i];
}

/// True (and *out set) when argv[*i] is `name`. The value must be all of
/// its token, a decimal size_t: empty input, a sign, any trailing
/// character, and overflow all exit 2 with
/// "<flag> needs a non-negative integer, got '<value>'".
inline bool ParseSizeFlag(int argc, char** argv, int* i, const char* name,
                          size_t* out) {
  if (std::strcmp(argv[*i], name) != 0) return false;
  const char* value = FlagValueOrExit(argc, argv, i, name);
  const char* end = value + std::strlen(value);
  // from_chars into an unsigned type accepts neither '+' nor '-' nor
  // leading whitespace, and reports overflow instead of wrapping.
  const auto [stop, error] = std::from_chars(value, end, *out);
  if (value == end || error != std::errc() || stop != end) {
    std::cerr << name << " needs a non-negative integer, got '" << value
              << "'\n";
    std::exit(2);
  }
  return true;
}

/// ParseSizeFlag's whole-token rule for a finite, non-negative decimal
/// double: anything else exits 2 with
/// "<flag> needs a non-negative number, got '<value>'".
inline bool ParseDoubleFlag(int argc, char** argv, int* i, const char* name,
                            double* out) {
  if (std::strcmp(argv[*i], name) != 0) return false;
  const char* value = FlagValueOrExit(argc, argv, i, name);
  const char* end = value + std::strlen(value);
  const auto [stop, error] = std::from_chars(value, end, *out);
  if (value == end || error != std::errc() || stop != end ||
      !std::isfinite(*out) || *out < 0.0) {
    std::cerr << name << " needs a non-negative number, got '" << value
              << "'\n";
    std::exit(2);
  }
  return true;
}

/// True (and *out set) when argv[*i] is `name`.
inline bool ParseStringFlag(int argc, char** argv, int* i, const char* name,
                            std::string* out) {
  if (std::strcmp(argv[*i], name) != 0) return false;
  *out = FlagValueOrExit(argc, argv, i, name);
  return true;
}

}  // namespace dpclustx

#endif  // DPCLUSTX_COMMON_FLAGS_H_
