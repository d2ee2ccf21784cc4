// Post-run variability analytics over the run journal (obs/journal.hpp).
//
// `analyze` reduces a journal's record stream to the self-contained
// `aio-report-v1` JSON document.  It is the record fold (obs/run_fold.hpp)
// plus JSON: the fold interprets the records and closes each run, and the
// report's sink turns every closed run into rows and running aggregates —
// the same fold, and so the same attribution, the live plane publishes:
//
//  * stall attribution — every simulated second a writer spends between run
//    begin and its first data byte is split into MDS service (open phase),
//    internal queueing (waiting behind its group's earlier writers), external
//    interference (the home OST's background net/disk load, integrated over
//    the writer's queue interval) and network transfer of the write signal.
//    The four components partition the wait exactly, so `attributed_frac`
//    is 1.0 by construction.
//  * variability statistics — per-run completion time (t_complete −
//    t_open_done, the paper's reported io_seconds) and per-writer write time,
//    as mean/stddev/CoV (exact, Welford) plus quartiles/p90/p99 from the
//    `obs::Histogram` log-bucket sketch, overall and per OST.
//  * steal provenance — each grant→migration→completion chain is priced
//    against the no-steal counterfactual (the stolen writer draining behind
//    its source queue at the source OST's observed mean service time), giving
//    simulated seconds saved per steal and a policy-effectiveness table.
//
// `diff_reports` compares two reports leaf-by-leaf under configurable
// tolerances — the CI regression gate (tools/aio_diff).  `report_summary`
// and `report_html` render the document for terminals and browsers;
// `flush_report` is the end-of-run hook (AIO_REPORT, AIO_TRACE) the benches
// and the API call at teardown.
#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/run_fold.hpp"

namespace aio::obs {

class Journal;

/// Reduces `journal` to an aio-report-v1 document.  Total: parses every
/// record stream the instrumented stack can produce, including an empty one;
/// malformed records (RunFold::ingest) are skipped and counted in
/// `journal.malformed`, a key present only when the count is non-zero.
[[nodiscard]] Json analyze(const Journal& journal);

/// The report's `summary.attribution` block for `w`; the live plane's final
/// row carries the same block.
[[nodiscard]] Json attribution_json(const WaitSplit& w);

/// One metadata server's row (ops, items, service_s, peak_queue), in the
/// report's `summary.mds_servers` and the live rows' `mds.servers`.
[[nodiscard]] Json mds_json(const RunFold::Mds& m);

/// Terse end-of-run summary: writers, steals, run/writer CoV and p99, wait
/// attribution shares, top-3 straggler OSTs, steal savings.  Multi-line,
/// newline-terminated; empty string for a report with no runs.
[[nodiscard]] std::string report_summary(const Json& report);

/// Self-contained static HTML page (inline CSS, no external assets)
/// rendering the report's tables, with the raw JSON embedded for tooling.
[[nodiscard]] std::string report_html(const Json& report);

struct DiffOptions {
  /// A numeric leaf fails when |cur - base| > max(abs, rel * |base|).
  double rel = 0.25;
  double abs = 1e-9;
  /// Object keys skipped (with their whole subtree) at any depth.  The
  /// defaults drop the per-OST/per-steal detail tables and journal byte
  /// counts, which legitimately shift run to run.
  std::vector<std::string> ignore = {"osts", "stragglers", "per_source", "journal"};
};

/// Leaf-by-leaf comparison of two reports.  Returns one human-readable line
/// per violation (tolerance breach, type/shape mismatch, missing key);
/// empty means the reports agree within tolerance.
[[nodiscard]] std::vector<std::string> diff_reports(const Json& base, const Json& current,
                                                    const DiffOptions& opts = {});

/// End-of-run hook.  When AIO_TRACE is set, renders the journal's Chrome
/// trace (obs/trace_export.hpp) to that path.  When AIO_REPORT is set,
/// analyzes `journal`, prints the terse summary to stdout and — unless the
/// value is "-" or "1" (summary only) — writes the JSON document to the
/// value as a path.  Both paths are numbered per machine `slot`
/// (numbered_path).  Returns false only when a file write failed; a no-op
/// (both unset) returns true.
bool flush_report(const Journal& journal, int slot);

}  // namespace aio::obs
