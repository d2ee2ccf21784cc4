// Output checks applied to every collective the benchmark runs.
//
// A collective passes only when every check below holds; the benchmark
// counts the ones that do not into `failed` (fail_rate = failed/attempted).
// Each function returns one line per violated check, empty when all hold,
// so checks_test.cpp can show that each one fires on a tampered result.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "core/transports/layout.hpp"
#include "obs/json.hpp"

namespace aio::perfbench {

/// What a collective must have produced, fixed by the job before it runs.
struct Expect {
  double job_bytes = 0.0;      ///< IoJob::total_bytes()
  std::size_t writers = 0;     ///< IoJob::n_writers()
  std::size_t blocks = 0;      ///< blocks over all writers' blueprints
  /// Bytes the adaptive transport may add on top of the payload for its
  /// per-file and global indices.  MPI-IO writes no index, so 0 there.
  double index_allowance = 0.0;
  bool adaptive = false;
};

/// Per-collective checks.  `bytes_submitted` is the file system's
/// `total_bytes_submitted()` growth over the collective.
inline std::vector<std::string> check_collective(const Expect& e, const core::IoResult& r,
                                                 double bytes_submitted) {
  std::vector<std::string> bad;
  // Every payload byte reaches an OST; beyond the payload only index bytes
  // may land (the adaptive transport's per-file and global indices).
  const double extra = bytes_submitted - e.job_bytes;
  if (!(extra >= -0.5 && extra <= e.index_allowance + 0.5))
    bad.push_back("fs.bytes_submitted " + std::to_string(bytes_submitted) + " != job bytes " +
                  std::to_string(e.job_bytes) +
                  (e.adaptive ? " + index (<= " + std::to_string(e.index_allowance) + ")" : ""));
  if (r.writer_times.size() != e.writers)
    bad.push_back("writer timings " + std::to_string(r.writer_times.size()) + " != writers " +
                  std::to_string(e.writers));
  if (e.adaptive && r.total_blocks_indexed != e.blocks)
    bad.push_back("blocks indexed " + std::to_string(r.total_blocks_indexed) + " != job blocks " +
                  std::to_string(e.blocks));
  const double io = r.io_seconds();
  if (!(std::isfinite(io) && io > 0.0))
    bad.push_back("io_seconds " + std::to_string(io) + " is not finite and positive");
  return bad;
}

/// Fig. 7 loop checks: adaptive IO must spread less than MPI-IO (the shape
/// the paper reports beyond ~4 procs/target) and the journal behind the
/// report must be complete.
inline std::vector<std::string> check_fig7_loop(double adaptive_stddev, double mpiio_stddev,
                                                std::size_t journal_dropped) {
  std::vector<std::string> bad;
  if (!(adaptive_stddev < mpiio_stddev))
    bad.push_back("adaptive write-time stddev " + std::to_string(adaptive_stddev) +
                  " is not below MPI-IO's " + std::to_string(mpiio_stddev));
  if (journal_dropped != 0)
    bad.push_back("journal dropped " + std::to_string(journal_dropped) + " records");
  return bad;
}

/// Checks one run of an aio-report-v1 document against the collective it
/// describes: run_time_s equals io_seconds, and the critical path tiles
/// [t0, t1] contiguously with segment durations summing to io_seconds.
inline std::vector<std::string> check_report_run(const obs::Json& run, double io_seconds) {
  constexpr double kTol = 1e-9;
  std::vector<std::string> bad;
  const obs::Json* rt = run.find("run_time_s");
  if (!rt || !(std::abs(rt->number() - io_seconds) <= kTol))
    bad.push_back("report run_time_s " + (rt ? std::to_string(rt->number()) : "missing") +
                  " != io_seconds " + std::to_string(io_seconds));
  const obs::Json* cp = run.find("critical_path");
  const obs::Json* segs = cp ? cp->find("segments") : nullptr;
  const obs::Json* t0 = cp ? cp->find("t0") : nullptr;
  const obs::Json* t1 = cp ? cp->find("t1") : nullptr;
  if (!segs || !segs->is_array() || segs->size() == 0 || !t0 || !t1) {
    bad.push_back("report run has no critical path");
    return bad;
  }
  double cursor = t0->number();
  double sum = 0.0;
  for (const obs::Json& s : segs->items()) {
    const obs::Json* s0 = s.find("t0");
    const obs::Json* s1 = s.find("t1");
    const obs::Json* dur = s.find("dur_s");
    if (!s0 || !s1 || !dur || !(std::abs(s0->number() - cursor) <= kTol)) {
      bad.push_back("critical path leaves a gap at t=" + std::to_string(cursor));
      return bad;
    }
    cursor = s1->number();
    sum += dur->number();
  }
  if (!(std::abs(cursor - t1->number()) <= kTol))
    bad.push_back("critical path ends at " + std::to_string(cursor) + ", not t1 " +
                  std::to_string(t1->number()));
  if (!(std::abs(sum - io_seconds) <= kTol))
    bad.push_back("critical path tiles " + std::to_string(sum) + " s, not io_seconds " +
                  std::to_string(io_seconds));
  return bad;
}

}  // namespace aio::perfbench
