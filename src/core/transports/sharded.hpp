// Self-contained sharded adaptive run.
//
// Bundles the pieces a sharded simulation needs — the shard group, a file
// system homed on it, a network routed through it, per-shard journals, and
// an AdaptiveTransport — and drives the conservative window loop to
// completion.  One instance is one run (the shard group's engines cannot be
// rewound); benches and tests construct a fresh rig per sample.
//
// Determinism contract (see DESIGN.md §10): for a fixed Config and job, the
// simulated timestamps, the IoResult, and the canonically merged journal are
// bit-identical at every shard count, because the domain grid, the window
// grid, and the cross-shard merge order are all independent of n_shards.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/transports/adaptive_transport.hpp"
#include "obs/journal.hpp"
#include "obs/prof.hpp"
#include "sim/shard.hpp"

namespace aio::core {

class ShardedAdaptiveSim {
 public:
  struct Config {
    std::size_t n_shards = 1;   ///< requested; clamped to the domain count
    std::size_t n_ranks = 0;    ///< protocol ranks (>= the job's writers)
    fs::FsConfig fs;
    net::NetConfig net;
    AdaptiveTransport::Config adaptive;  ///< open_mode must stay Skip
    /// Window = lookahead * batch (see ShardGroup); the lookahead is the
    /// network latency, the minimum cross-shard coupling delay.
    double window_batch = 64.0;
    std::size_t n_domains = 0;  ///< 0 = default plan (min(32, n_osts))
    bool collect_journal = false;  ///< attach one journal per shard engine
    /// Host-runtime profiler (obs/prof.hpp), bound to the shard group before
    /// the run.  Null (the default) records nothing.  Profiling never feeds
    /// back into simulated time, so results stay bit-identical armed or not;
    /// with `collect_journal` the run additionally appends one kProfShard
    /// record per shard at the run's final simulated time.
    obs::prof::ShardProfiler* profiler = nullptr;
  };

  explicit ShardedAdaptiveSim(Config config);

  /// Seeds the protocol and runs the window loop to completion on all
  /// shards.  Throws if the run does not drain.  One call per instance.
  IoResult run(const IoJob& job);

  [[nodiscard]] sim::ShardGroup& shards() { return shards_; }
  [[nodiscard]] fs::FileSystem& fs() { return fs_; }
  [[nodiscard]] net::Network& net() { return net_; }
  [[nodiscard]] std::size_t steps() const { return shards_.total_steps(); }

  /// Canonically merged records of the per-shard journals (empty unless
  /// `collect_journal` was set).
  [[nodiscard]] std::vector<obs::Record> merged_records() const;

 private:
  sim::ShardGroup shards_;
  std::vector<std::unique_ptr<obs::Journal>> journals_;  // one per shard
  fs::FileSystem fs_;
  net::Network net_;
  AdaptiveTransport transport_;
};

}  // namespace aio::core
