// Journal -> Chrome trace_event renderer.
//
// The Chrome trace is a *view* of the record stream, not a second stream:
// this module renders the binary run journal into the `{"traceEvents":
// [...]}` document that chrome://tracing and Perfetto load directly.  Any
// journal renders — a finished run's, a sharded run's canonical merge, or a
// flight-recorder dump from a crashed run.  Consumers:
//   * `AIO_TRACE=<path>`: the end-of-run hook (`obs::flush_report`) writes
//     the run's rendered trace, numbered per machine like every AIO_* path;
//   * `tools/aio_report --trace out.json` renders a saved journal, with the
//     report's critical path alongside.
//
// Timestamps are simulated seconds converted to microseconds (the
// trace_event unit).  Tracks:
//   * protocol (pid 2): one thread per writer with a `write` span from
//     kWriterStart to kWriterEnd (args: file, bytes) and an instant at
//     kWriterSignal; run-phase instants and steal grant/complete instants on
//     thread 0;
//   * storage (pid 3): per-OST counter tracks rebuilt from kOstState —
//     `ost<i> ext` (max(net, disk) external load, the step function the
//     analyzer integrates), `ost<i>.dirty_streams` and `ost<i>.efficiency`
//     (the internal-interference penalty) — plus `ost<i>.cache_full` /
//     `ost<i>.cache_drained` instants on the OST's own thread;
//   * mds (pid 4): one thread per metadata server with a span per kMdsOp
//     named by op kind (`mds.open`, `mds.close`, `mds.stat`, `mds.create`)
//     lasting its service time, plus an `mds.backlog` counter;
//   * runtime (pid 5): one instant per kProfShard record with the shard's
//     host-time split (only present when the run was profiled);
//   * critical path (pid 6, report_trace only): one thread per run, tiled
//     with the typed segments of `runs[i].critical_path` — the path renders
//     directly under the writer spans that produced it.
#pragma once

#include <cstdint>
#include <string>

#include "obs/journal.hpp"
#include "obs/json.hpp"

namespace aio::obs {

/// Fixed Chrome-trace process ids: one "process" per layer, so the viewer
/// groups tracks by layer.
inline constexpr std::uint32_t kPidProtocol = 2;
inline constexpr std::uint32_t kPidStorage = 3;
inline constexpr std::uint32_t kPidMds = 4;
inline constexpr std::uint32_t kPidRuntime = 5;
inline constexpr std::uint32_t kPidPath = 6;

/// Trace document for the journal's record stream alone.
[[nodiscard]] Json journal_trace(const Journal& journal);

/// Streams the same document as journal_trace() to `path` without building
/// it in memory; false when the file could not be written.
[[nodiscard]] bool write_journal_trace(const Journal& journal, const std::string& path);

/// Trace document for the `critical_path` blocks of an aio-report-v1
/// document (one thread per run).  Runs without a path contribute nothing.
[[nodiscard]] Json critical_path_trace(const Json& report);

/// Combined document: the journal's tracks plus the report's critical-path
/// tracks in one file, so cause (writer/OST activity) and effect (the path)
/// line up on a shared timeline.
[[nodiscard]] Json report_trace(const Journal& journal, const Json& report);

}  // namespace aio::obs
