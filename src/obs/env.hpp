// Strict environment-variable parsing, shared by the library's knobs
// (AIO_LIVE_PERIOD_S, AIO_BENCH_MAX_STEPS) and the bench binaries
// (bench/env.hpp forwards here).
//
// Strict by design: a value that fails to parse (trailing junk, overflow,
// non-positive) is *rejected with a one-line stderr warning* and the caller
// falls back to its default, instead of silently running a different
// experiment than the one the user thought they configured
// (`AIO_BENCH_SAMPLES=4O` — a typo'd letter O — used to atol() to 4).
// Warnings go to stderr only, so stdout stays byte-comparable across runs.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <type_traits>

namespace aio::obs {

/// Strict number parse, the one behind every env knob: the integer (strtol,
/// base 10) or floating-point (strtod) number at the start of `s`, provided
/// the parse consumed something, did not overflow, and stopped at the end of
/// `s` or at `sep`.  `*rest` then points at the character it stopped at, so
/// list parsers can resume after the separator.
template <typename T>
std::optional<T> parse_number(const char* s, const char** rest = nullptr, char sep = '\0') {
  char* end = nullptr;
  errno = 0;
  T parsed;
  if constexpr (std::is_integral_v<T>)
    parsed = std::strtol(s, &end, 10);
  else
    parsed = std::strtod(s, &end);
  if (errno != 0 || end == s || (*end != '\0' && *end != sep)) return std::nullopt;
  if (rest) *rest = end;
  return parsed;
}

/// Positive integer from the environment; `fallback` when unset or invalid.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const std::optional<long> parsed = parse_number<long>(v);
  if (!parsed || *parsed <= 0) {
    std::fprintf(stderr, "aio: ignoring %s=\"%s\" (want a positive integer); using %zu\n", name,
                 v, fallback);
    return fallback;
  }
  return static_cast<std::size_t>(*parsed);
}

/// Positive double from the environment; `fallback` when unset or invalid.
inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  const std::optional<double> parsed = parse_number<double>(v);
  if (!parsed || !(*parsed > 0.0)) {
    std::fprintf(stderr, "aio: ignoring %s=\"%s\" (want a positive number); using %g\n", name, v,
                 fallback);
    return fallback;
  }
  return *parsed;
}

}  // namespace aio::obs
