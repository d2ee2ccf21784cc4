// Owning bundles of record-bus subscribers, for the hosts that wire them.
//
// `Observers` is what one simulated machine hosts: the env-armed run
// journal (AIO_JOURNAL / AIO_REPORT / AIO_TRACE) and live plane (AIO_LIVE /
// AIO_FLIGHT), an always-attached metrics registry, and the Recorder that
// fans every record out to them.  `ShardRecords` is what a sharded run
// hosts: one journal-only recorder per shard engine, merged canonically
// after the run.  Hosts (api::Simulation, core::ShardedAdaptiveSim) hand the
// recorders to their engines and never touch the subscribers directly.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "obs/journal.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace aio::obs {

class Observers {
 public:
  /// Arms the journal and live plane from the environment, numbering their
  /// paths per `slot` (numbered_path; -1 = creation order).
  explicit Observers(int slot = -1);
  // The engine holds the recorder's address.
  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;

  /// The engine's recorder (never null: the registry is always attached).
  [[nodiscard]] Recorder* recorder() { return &recorder_; }
  /// Counters derive from the record stream (obs/recorder.hpp); hosts may
  /// add their own entries and sampled series.
  [[nodiscard]] Registry& metrics() { return metrics_; }
  /// Null unless AIO_JOURNAL, AIO_REPORT or AIO_TRACE is set.
  [[nodiscard]] Journal* journal() { return journal_.get(); }
  /// Null unless AIO_LIVE or AIO_FLIGHT is set.
  [[nodiscard]] LivePlane* live() { return live_.get(); }
  /// Current live-plane snapshot (zeroed without a plane).
  [[nodiscard]] LiveView live_view() const { return live_ ? live_->view() : LiveView{}; }

  /// Writes every artifact: the binary journal, the trace and report
  /// (flush_report), the live snapshot tail and — when `aborted` — the
  /// flight-recorder dump.  Call once, at the end of the run.
  void flush(bool aborted);

 private:
  int slot_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<LivePlane> live_;
  Registry metrics_;
  Recorder recorder_;
};

class ShardRecords {
 public:
  /// One journal-only recorder per shard; none when `n_shards` is 0.
  explicit ShardRecords(std::size_t n_shards);

  [[nodiscard]] bool empty() const { return parts_.empty(); }
  [[nodiscard]] Recorder* recorder(std::size_t shard) { return &parts_[shard]->recorder; }

  /// Canonical merge of every shard's records (merge_records).
  [[nodiscard]] std::vector<Record> merged() const;

 private:
  struct Part {
    Journal journal{Journal::Config{}};
    Recorder recorder{&journal};
  };
  std::vector<std::unique_ptr<Part>> parts_;
};

}  // namespace aio::obs
