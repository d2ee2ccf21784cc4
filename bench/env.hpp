// Environment-variable parsing for the bench binaries.
//
// Strict by design: a value that fails to parse (trailing junk, overflow,
// non-positive) is *rejected with a one-line stderr warning* and the bench
// falls back to its default, instead of silently running a different
// experiment than the one the user thought they configured
// (`AIO_BENCH_SAMPLES=4O` — a typo'd letter O — used to atol() to 4).
// The strict parsers themselves live in src/obs/env.hpp so library-side
// knobs (AIO_LIVE, AIO_FLIGHT_RECORDS, ...) get the same hardening; this
// header keeps the bench-flavoured aliases and the MAX_PROCS sweep helpers.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include "obs/env.hpp"
#include "sim/shard.hpp"

namespace aio::bench {

/// Positive integer from the environment; `fallback` when unset or invalid.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  return obs::env_size(name, fallback);
}

/// Largest writer count a bench may run, from `AIO_BENCH_MAX_PROCS`.
///
/// Every bench routes its scale cap through here so one export trims (or
/// extends, where the bench supports it) the whole suite.  Benches sweep
/// discrete scales — usually powers of two, sometimes fixed presets — so a
/// cap that lands between sweep points truncates to the largest point below
/// it; pair the sweep with `warn_unreached_max_procs` so that truncation is
/// announced rather than silent.
inline std::size_t max_procs_or(std::size_t fallback) {
  return env_size("AIO_BENCH_MAX_PROCS", fallback);
}

/// Announces on stderr when the resolved AIO_BENCH_MAX_PROCS cap was not a
/// sweep point: the user asked for `cap` writers but the largest scale the
/// bench actually ran is `reached`.  Quiet when the variable is unset or the
/// cap was hit exactly, and stderr-only either way, so stdout stays
/// byte-comparable across runs.
inline void warn_unreached_max_procs(std::size_t cap, std::size_t reached) {
  if (reached == cap) return;
  if (const char* v = std::getenv("AIO_BENCH_MAX_PROCS"); v && *v)
    std::fprintf(stderr,
                 "bench: AIO_BENCH_MAX_PROCS=%zu is not a sweep point; largest scale run is %zu\n",
                 cap, reached);
}

/// Fixed-sweep convenience: finds the largest sweep point at or below `cap`
/// and warns (as above) when the cap lands between points.
inline void warn_unreached_max_procs(std::size_t cap, std::initializer_list<std::size_t> sweep) {
  std::size_t reached = 0;
  for (const std::size_t p : sweep)
    if (p <= cap && p > reached) reached = p;
  warn_unreached_max_procs(cap, reached);
}

/// Positive double from the environment; `fallback` when unset or invalid.
inline double env_double(const char* name, double fallback) {
  return obs::env_double(name, fallback);
}

/// Shard-count sweep from `AIO_SIM_SHARDS`: a comma-separated list of
/// positive integers, e.g. `AIO_SIM_SHARDS=1,2,4,8`.  Empty when unset —
/// benches treat that as "classic engine only", keeping their stdout
/// byte-identical to a build without sharding.  Same strictness as
/// env_size: any malformed entry rejects the whole list with a one-line
/// stderr warning (once per process) rather than running a partial sweep.
inline std::vector<std::size_t> shard_sweep() {
  const char* v = std::getenv("AIO_SIM_SHARDS");
  if (!v || !*v) return {};
  static bool warned = false;
  std::vector<std::size_t> out;
  const char* p = v;
  for (;;) {
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(p, &end, 10);
    if (errno != 0 || end == p || parsed <= 0 || (*end != '\0' && *end != ',')) {
      if (!warned) {
        warned = true;
        std::fprintf(stderr,
                     "bench: ignoring AIO_SIM_SHARDS=\"%s\" (want a comma-separated list of "
                     "positive integers, e.g. 1,2,4,8)\n",
                     v);
      }
      return {};
    }
    out.push_back(static_cast<std::size_t>(parsed));
    if (*end == '\0') return out;
    p = end + 1;
  }
}

/// Largest shard count in the `AIO_SIM_SHARDS` sweep; 1 when unset/invalid.
/// bench_threads() divides the sample pool by this so sample threads times
/// shard threads never oversubscribes the host.
inline std::size_t max_shards() {
  std::size_t m = 1;
  for (const std::size_t s : shard_sweep())
    if (s > m) m = s;
  return m;
}

/// Positive integer from `name`; `fallback` when unset.  A malformed value
/// (trailing junk, overflow, non-positive) is rejected with a one-line
/// stderr warning — once per process, tracked by the caller's `warned`
/// flag — and `fallback` is used.
inline std::size_t positive_size_warn_once(const char* name, std::size_t fallback,
                                           bool& warned) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (errno != 0 || end == v || *end != '\0' || parsed <= 0) {
    if (!warned) {
      warned = true;
      std::fprintf(stderr, "bench: ignoring %s=\"%s\" (want a positive integer)\n", name, v);
    }
    return fallback;
  }
  return static_cast<std::size_t>(parsed);
}

/// Domain-grid override from `AIO_SIM_DOMAINS`: a positive integer, or 0
/// (the default) for the built-in plan (min(32, n_osts)).
inline std::size_t sim_domains() {
  static bool warned = false;
  return positive_size_warn_once("AIO_SIM_DOMAINS", 0, warned);
}

/// Announces (once per process, stderr only) when the requested domain
/// count exceeds the OST count: the grid clamps to one OST span per domain,
/// so the run uses fewer domains than asked for.
inline void warn_domains_exceed_osts(std::size_t domains, std::size_t n_osts) {
  if (domains == 0 || domains <= n_osts) return;
  static bool warned = false;
  if (warned) return;
  warned = true;
  std::fprintf(stderr,
               "bench: AIO_SIM_DOMAINS=%zu exceeds n_osts=%zu; the domain grid clamps to %zu "
               "(every domain needs a non-empty OST span)\n",
               domains, n_osts, n_osts);
}

/// Metadata-server count from `AIO_MDS_COUNT`: a positive integer, 1 (the
/// single-server model, byte-identical to pre-tier builds) when unset.
inline std::size_t mds_count() {
  static bool warned = false;
  return positive_size_warn_once("AIO_MDS_COUNT", 1, warned);
}

/// Batched-mode create span from `AIO_MDS_BATCH`: a positive integer
/// (default 64); 0 is malformed like any other non-positive value.
inline std::size_t mds_batch() {
  static bool warned = false;
  return positive_size_warn_once("AIO_MDS_BATCH", 64, warned);
}

/// Shard-runtime profiler arming from `AIO_PROF` (obs/prof.hpp):
///
///   unset / "0"  — off (the default; zero clock reads in the run loop);
///   "1" or "-"   — armed, one-line stderr summary per profiled sample;
///   <path>       — armed, aio-prof-v1 JSON written to <path> (stderr
///                  summary too).
///
/// Other digit-only values ("2", "07") are almost certainly mistyped
/// toggles, not paths: rejected with a one-line stderr warning (once per
/// process) and the profiler stays off.  `AIO_PROF_PERIOD_S` adds periodic
/// one-line stderr rows every that-many host seconds (positive number;
/// malformed values are rejected the same way and disable the ticker).
struct ProfEnv {
  bool enabled = false;
  std::string path;      ///< empty = stderr summary only
  double period_s = 0.0; ///< 0 = no periodic rows
};
inline ProfEnv prof_env() {
  ProfEnv pe;
  const char* v = std::getenv("AIO_PROF");
  if (!v || !*v) return pe;
  if (v[0] == '0' && v[1] == '\0') return pe;
  const bool summary_only = (v[0] == '1' || v[0] == '-') && v[1] == '\0';
  if (!summary_only) {
    bool digits_only = true;
    for (const char* p = v; *p; ++p)
      if (*p < '0' || *p > '9') {
        digits_only = false;
        break;
      }
    if (digits_only) {
      static bool warned = false;
      if (!warned) {
        warned = true;
        std::fprintf(stderr,
                     "bench: ignoring AIO_PROF=\"%s\" (want 0, 1, -, or a file path)\n", v);
      }
      return pe;
    }
    pe.path = v;
  }
  pe.enabled = true;
  const char* period = std::getenv("AIO_PROF_PERIOD_S");
  if (period && *period) {
    char* end = nullptr;
    errno = 0;
    const double parsed = std::strtod(period, &end);
    if (errno != 0 || end == period || *end != '\0' || !(parsed > 0.0)) {
      static bool warned = false;
      if (!warned) {
        warned = true;
        std::fprintf(stderr,
                     "bench: ignoring AIO_PROF_PERIOD_S=\"%s\" (want a positive number of "
                     "seconds)\n",
                     period);
      }
    } else {
      pe.period_s = parsed;
    }
  }
  return pe;
}

/// Window multiplier from `AIO_SIM_WINDOW_BATCH`: a number in
/// [1, sim::ShardGroup::kMaxWindowBatch], possibly fractional.  Unset means
/// the default 64; anything else is rejected with a one-line stderr warning
/// (once per process) and the default is used.
inline double window_batch() {
  constexpr double kDefault = 64.0;
  const char* v = std::getenv("AIO_SIM_WINDOW_BATCH");
  if (!v || !*v) return kDefault;
  static bool warned = false;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (errno != 0 || end == v || *end != '\0' ||
      !(parsed >= 1.0 && parsed <= sim::ShardGroup::kMaxWindowBatch)) {
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "bench: ignoring AIO_SIM_WINDOW_BATCH=\"%s\" (want a number in [1, 1e6])\n",
                   v);
    }
    return kDefault;
  }
  return parsed;
}

}  // namespace aio::bench
