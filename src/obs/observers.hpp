// The observer host: everything one simulated machine observes, and the
// only code that arms, numbers, ticks and flushes it.
//
// `Observers` owns a machine's record-bus subscribers and their lifecycle:
//
//   * slot      — resolved once, from an explicit index or one process-wide
//                 first-come counter, so every AIO_* path of the machine
//                 (journal, trace, report, live, flight, metrics) carries the
//                 same number (numbered_path);
//   * arming    — the run journal (AIO_JOURNAL / AIO_REPORT / AIO_TRACE) and
//                 live plane (AIO_LIVE / AIO_FLIGHT) from the environment; the
//                 metrics registry under AIO_METRICS, or always when the host
//                 asks for it (api::Simulation, whose API returns metrics);
//   * daemons   — the optional Sampler and the live-snapshot ticker,
//                 scheduled on each engine the host attaches;
//   * flush     — one latched write of every artifact.
//
// Hosts (bench::Machine, api::Simulation, the macro benches) hand
// recorder() to their engine — or, for a sharded run, to its shard group
// (sim::ShardGroup::set_recorder), attaching shard 0's engine — make the
// single FileSystem::register_probes call when they sample, and never wire
// a subscriber themselves.
#pragma once

#include <memory>
#include <optional>

#include "obs/journal.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/sampler.hpp"

namespace aio::sim {
class Engine;
}

namespace aio::obs {

class Observers {
 public:
  /// `slot` numbers this machine's output paths (slot 0 writes `<path>`,
  /// slot k writes `<path>.k+1`); -1 takes the next first-come slot, which
  /// is deterministic only when machines are built serially.
  /// `with_metrics` attaches the registry even without AIO_METRICS.
  explicit Observers(int slot = -1, bool with_metrics = false);
  // Engines hold the recorder's address and daemons hold `this`.
  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;

  /// The engine's recorder; null when nothing is armed, so an unobserved
  /// engine keeps every emission site on its zero-cost path.
  [[nodiscard]] Recorder* recorder() { return recorder_.empty() ? nullptr : &recorder_; }
  [[nodiscard]] int slot() const { return slot_; }
  /// Null unless AIO_METRICS is set or the host asked for a registry.
  /// Counters derive from the record stream (obs/recorder.hpp); hosts may
  /// add their own entries and sampled series.
  [[nodiscard]] Registry* metrics() { return metrics_.get(); }
  /// Null unless AIO_JOURNAL, AIO_REPORT or AIO_TRACE is set.
  [[nodiscard]] Journal* journal() { return journal_.get(); }
  /// Null unless AIO_LIVE or AIO_FLIGHT is set.
  [[nodiscard]] LivePlane* live() { return live_.get(); }
  /// Current live-plane snapshot (zeroed without a plane).
  [[nodiscard]] LiveView live_view() const { return live_ ? live_->view() : LiveView{}; }

  /// Creates the sampler that feeds the registry every `period_s` sim
  /// seconds (metrics() must be armed).  The host registers its probes on
  /// it, then attach()es the engine that ticks it.
  Sampler& sample_every(double period_s);

  /// Schedules the sampler's daemon, then the live plane's snapshot daemon,
  /// on `engine`.  Daemons never keep Engine::run() alive, so observing
  /// cannot change when a run ends.  A host that runs several engines in
  /// turn attaches each; an aborted flush reads the last one's clock, so
  /// it must still be alive then.
  void attach(sim::Engine& engine);

  /// Writes every artifact, in order: the binary journal, the trace and
  /// report (flush_report), the live snapshot tail and the AIO_METRICS
  /// JSON.  When `aborted`, first ticks the sampler one last time (the
  /// metrics tail between the last daemon tick and the abort) and dumps the
  /// flight recorder.  Latched: returns true on the call that wrote, and
  /// every later call is a no-op returning false.
  bool flush(bool aborted);

 private:
  void schedule_sample(sim::Engine& engine);
  void schedule_snapshot(sim::Engine& engine);

  int slot_;
  std::unique_ptr<Journal> journal_;
  std::unique_ptr<LivePlane> live_;
  std::unique_ptr<Registry> metrics_;
  Recorder recorder_;
  std::optional<Sampler> sampler_;
  sim::Engine* engine_ = nullptr;
  bool flushed_ = false;
};

}  // namespace aio::obs
