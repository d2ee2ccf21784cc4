// The record bus: one observer pointer per engine, many subscribers.
//
// Instrumented layers (OSTs, metadata servers, the adaptive protocol) emit
// each observable event exactly once, as a fixed-size `Record`, through the
// engine's `obs::Recorder*`.  The pointer is null by default, so an
// unobserved run pays one pointer test per emission site and records
// nothing.  The recorder is a concrete fan-out to up to three optional
// subscribers, each fed the same stream in emission order:
//
//   * a Journal — the lossless binary record stream.  Every offline view
//     derives from it: the aio-report-v1 analysis, the critical path, and
//     the Chrome trace (`AIO_TRACE` is rendered from the journal at the end
//     of the run, obs/trace_export.hpp);
//   * a LivePlane — the record fold the offline report also runs
//     (obs/run_fold.hpp), plus online sliding windows, straggler scores, and
//     the flight-recorder ring;
//   * a metrics Registry, whose counters derive from record kinds:
//       mds.ops                        one per kMdsOp
//       storage.cache_full_crossings   0->1 edges of kOstState.a, per OST
//       protocol.steal_grants          one per kStealGrant
//       protocol.steals                one per kStealComplete
//       protocol.runs, last_steals,    kRunMark kComplete (v0 = steals,
//         last_grants                  v1 = grants)
//       protocol.run_s (histogram)     kComplete - kRunBegin of the run
//       protocol.writer_s (histogram)  kWriterEnd - kWriterStart per writer
//     The registry entries are resolved once, at construction.
//
// Subscribers are pure consumers: no simulated decision reads them, so a
// run with any combination attached is bit-identical to a bare one.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/journal.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"

namespace aio::obs {

class Recorder {
 public:
  /// Every subscriber is optional and must outlive the recorder.
  explicit Recorder(Journal* journal = nullptr, LivePlane* live = nullptr,
                    Registry* metrics = nullptr);
  // Engines hold the recorder's address.
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Hands `r` to every attached subscriber.
  void emit(const Record& r) {
    if (journal_) journal_->append(r);
    if (live_) live_->ingest(r);
    if (metrics_) derive(r);
  }

  /// Starts a new run: its 1-based journal ordinal, or 0 without a journal.
  std::uint32_t begin_run() { return journal_ ? journal_->begin_run() : 0; }

  /// True when no subscriber is attached (hosts then leave the engine's
  /// recorder null, keeping emission sites on their unobserved path).
  [[nodiscard]] bool empty() const { return !journal_ && !live_ && !metrics_; }

 private:
  void derive(const Record& r);

  Journal* journal_;
  LivePlane* live_;
  Registry* metrics_;

  // Registry entries, resolved once (null without a registry).
  Counter* mds_ops_ = nullptr;
  Counter* cache_full_crossings_ = nullptr;
  Counter* steal_grants_ = nullptr;
  Counter* steals_ = nullptr;
  Counter* runs_ = nullptr;
  Gauge* last_steals_ = nullptr;
  Gauge* last_grants_ = nullptr;
  Histogram* run_s_ = nullptr;
  Histogram* writer_s_ = nullptr;

  std::vector<std::uint8_t> cache_full_;  ///< last kOstState.a, by OST
  std::vector<double> writer_start_;      ///< last kWriterStart.t, by writer
  std::vector<double> run_begin_;         ///< kRunBegin.t, by run ordinal
};

}  // namespace aio::obs
