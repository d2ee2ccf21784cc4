// Sharded parallel discrete-event execution with conservative lookahead.
//
// A `ShardGroup` partitions one simulation into S shards, each running its
// own `sim::Engine` (4-ary heap, SBO callbacks — unchanged) on its own
// thread.  Each shard owns three contiguous spans of entities: a run of
// ranks whose cuts are rounded down to node boundaries (so a node's NIC
// never straddles shards), a run of storage targets, and a run of metadata
// servers (see shard_of_rank / shard_of_ost / shard_of_mds).  S is clamped
// to [1, min(kMaxShards, n_osts)], so every shard owns at least one OST.
//
// Couplings quantize by *physical* topology, not by ownership: an
// interaction that stays inside one node (rank→rank on the same node) is
// scheduled directly on the owning engine, while every interaction that
// crosses a node or storage-target boundary — network deliveries, OST write
// hand-offs, fabric-governor broadcasts, protocol completions — travels
// through the channel plane and is applied at a window boundary, *even when
// source and destination happen to share a shard*.  Because the rule never
// mentions shards, the set of quantized couplings (and therefore every
// simulated timestamp) is invariant under the shard count and the span
// cuts: placement only decides which thread runs an entity.
//
// Time advances on a fixed window grid W_k = k * window.  Each round a shard
// publishes its horizon — the minimum of its engine's next event time and
// the due times of the messages it posted during the last window (producer-
// side accounting: the poster knows each message's boundary-clamped due
// time, so nothing needs a second rendezvous) — then all shards meet at one
// sense-reversing barrier, agree on the global minimum, drain their inboxes
// for this round, merge them in canonical (time, source entity, sequence)
// order, and hop the window cursor to the window containing the global
// minimum: runs of empty windows cost one barrier total, not one each.  The
// window is derived from the minimum network latency (`net::latency_s`):
// any window >= that lookahead is conservative because a message posted in
// window k can only be *due* at or after the boundary, where it is applied
// before any event of window k+1 executes.  Larger windows trade timing
// granularity for barrier amortization (see DESIGN.md §10); the default is
// 64 lookaheads.
//
// Determinism: because the window grid, the quantization rule, the entity
// keys and the merge order are all independent of S, the event sequence
// each entity observes — and therefore every simulated timestamp — is
// bit-identical at any shard count, including S = 1 (which runs the same
// window loop inline, no threads).
//
// Observation follows the classic engine's rule: the host hands the group
// its one recorder (set_recorder), which the barrier feeds once per round.
// Records are stamped with the emitting engine's clock, so rounds partition
// simulated time and the per-round canonical merge is the whole run's: the
// host's journal, live plane and registry see the same stream at every S.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <vector>

#include "obs/journal.hpp"
#include "sim/engine.hpp"

namespace aio::obs {
class Recorder;
}
namespace aio::obs::prof {
class ShardProfiler;
}

namespace aio::sim {

/// Engine of the shard executing on the current thread (engine 0 outside the
/// window loop, e.g. while seeding).  Null until a ShardGroup exists on this
/// thread's session.
[[nodiscard]] Engine* current_engine();
/// Index of the shard executing on the current thread (0 while seeding).
[[nodiscard]] std::size_t current_shard_index();

class ShardGroup {
 public:
  struct Config {
    std::size_t n_shards = 1;  ///< requested; clamped to [1, min(kMaxShards, n_osts)]
    double lookahead_s = 8e-6; ///< conservative bound: min cross-shard latency
    /// Window = lookahead * window_batch, in [1, kMaxWindowBatch].  Larger
    /// values amortize the per-window barrier over more events at the cost
    /// of coarser cross-entity timing quantization.
    double window_batch = 64.0;
    std::size_t n_ranks = 0;    ///< total protocol ranks (> 0)
    std::size_t ranks_per_node = 1;  ///< NIC granularity for rank cuts
    std::size_t n_osts = 0;     ///< total storage targets (> 0)
    /// Metadata servers (>= 1).  Each MDS is its own entity: it owns a
    /// merge key after the nodes and OSTs and is homed by the same span rule
    /// that places OSTs, so a multi-MDS tier spreads over the shards.
    /// Placement never affects timing — every rank→MDS coupling crosses the
    /// compute/metadata boundary and rides the channel plane wherever the
    /// server lives.
    std::size_t n_mds = 1;
  };
  /// Upper clamp on the shard count (below n_osts on every paper machine).
  static constexpr std::size_t kMaxShards = 32;
  /// Largest accepted window_batch.  Messages posted inside a window are
  /// clamped to its end, so simulated time jumps to window ends; once those
  /// are so large that one ulp of simulated time exceeds the fluid model's
  /// step (measured at 8 us lookahead: 1e9 still runs, 1e12 and inf spin
  /// forever), time stops advancing.  1e6 keeps three decades of margin and
  /// is already coarser than any collective.
  static constexpr double kMaxWindowBatch = 1e6;

  explicit ShardGroup(Config config);
  ~ShardGroup();
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  [[nodiscard]] std::size_t n_shards() const { return n_shards_; }
  [[nodiscard]] std::size_t n_ranks() const { return cfg_.n_ranks; }
  [[nodiscard]] std::size_t n_osts() const { return cfg_.n_osts; }
  [[nodiscard]] std::size_t n_nodes() const { return n_nodes_; }
  [[nodiscard]] std::size_t n_mds() const { return n_mds_; }
  [[nodiscard]] double lookahead_s() const { return cfg_.lookahead_s; }
  [[nodiscard]] double window_s() const { return window_s_; }

  [[nodiscard]] Engine& engine(std::size_t shard) { return *engines_[shard]; }

  /// Owning shard of each entity.  Rank cut s is s·n_ranks/S rounded down
  /// to a node boundary; OST o and server m go to ((o+1)·S−1)/n_osts and
  /// ((m+1)·S−1)/n_mds — contiguous, balanced spans.
  [[nodiscard]] std::size_t shard_of_rank(std::size_t rank) const;
  [[nodiscard]] std::size_t shard_of_ost(std::size_t ost) const {
    return ((ost + 1) * n_shards_ - 1) / cfg_.n_osts;
  }
  [[nodiscard]] std::size_t shard_of_mds(std::size_t mds) const {
    return ((mds + 1) * n_shards_ - 1) / n_mds_;
  }

  /// Canonical merge keys.  A message's source is a physical *entity* — a
  /// node (for anything a rank does), a storage target, or a metadata
  /// server — numbered so the key space is independent of the shard count:
  /// nodes first, then OSTs, then metadata servers.  An entity lives
  /// entirely on one shard (rank cuts are node-aligned; an OST or MDS is
  /// atomic), so all of a key's messages come from one shard and its
  /// sequence numbers are monotone.
  [[nodiscard]] std::uint32_t key_of_rank(std::size_t rank) const {
    return static_cast<std::uint32_t>(rank / cfg_.ranks_per_node);
  }
  [[nodiscard]] std::uint32_t key_of_ost(std::size_t ost) const {
    return static_cast<std::uint32_t>(n_nodes_ + ost);
  }
  [[nodiscard]] std::uint32_t key_of_mds(std::size_t mds) const {
    return static_cast<std::uint32_t>(n_nodes_ + cfg_.n_osts + mds);
  }

  /// Posts `fn` to `dst_shard`, to run at simulated time `t` (clamped up to
  /// the current window boundary — nothing may land inside the window in
  /// flight).  `src_key` names the posting entity (`key_of_rank` /
  /// `key_of_ost`), must be owned by the calling shard, and together with a
  /// per-entity sequence number forms the canonical merge key.
  void post(std::uint32_t src_key, std::size_t dst_shard, Time t, Engine::Callback fn);

  /// Posts `fn` to run exactly at the next window boundary (the canonical
  /// apply time for zero-delay cross-entity couplings).
  void post_at_boundary(std::uint32_t src_key, std::size_t dst_shard, Engine::Callback fn) {
    post(src_key, dst_shard, 0.0, std::move(fn));
  }

  /// Runs the window loop on all shards until no shard holds a normal event
  /// and all channels are empty.  S > 1 spawns S worker threads; S == 1 runs
  /// the identical loop inline.  Rethrows the first worker exception.  A
  /// group can only run once.
  void run();

  /// Total events executed across all shards.
  [[nodiscard]] std::size_t total_steps() const;

  /// Window-loop telemetry (valid after run()): windows actually executed,
  /// empty grid windows hopped over without a barrier, and barrier rounds.
  [[nodiscard]] std::uint64_t windows_executed() const { return windows_executed_; }
  [[nodiscard]] std::uint64_t windows_skipped() const { return windows_skipped_; }
  [[nodiscard]] std::uint64_t barrier_rounds() const { return rounds_; }

  /// Arms the host-runtime profiler (obs/prof.hpp): binds one padded slot
  /// per shard and makes the window loop accumulate execute / barrier-wait /
  /// merge / skip host time plus message counters into it.  Null (the
  /// default) costs one pointer test per round and zero clock reads.  Must
  /// be called before run(); the profiler only reads the host clock, so the
  /// simulated event sequence is identical armed or not.
  void set_profiler(obs::prof::ShardProfiler* prof);
  [[nodiscard]] obs::prof::ShardProfiler* profiler() const { return prof_; }

  /// Hands the host's recorder to the group, as Engine::set_recorder does
  /// for one engine: each shard engine records into a buffer of its own,
  /// and in every barrier round the last shard to arrive — the others
  /// parked, nothing emitting — merges the finished window's buffers
  /// (obs::merge_records) and emits them through `recorder`.  A record
  /// stamped before the previous window's end breaks the time partition
  /// and throws std::logic_error.  Null (the default) costs one pointer
  /// test per round.  Must be called before run().
  void set_recorder(obs::Recorder* recorder);
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

  /// Test hook: makes the next multi-message merge swap two entries so the
  /// canonical-order validator must reject it (proves misordered cross-shard
  /// merges cannot pass silently).
  void corrupt_next_merge_for_test() { corrupt_.store(true, std::memory_order_relaxed); }

 private:
  struct Msg {
    Time t;
    std::uint32_t key;     // source entity: second merge key
    std::uint64_t seq;     // per-entity sequence: third merge key
    Engine::Callback fn;
  };
  // One horizon slot per (round parity, shard): what the shard can reach
  // next and how much it still owes the system (pending engine events plus
  // messages it posted last window that no engine has scheduled yet).
  struct alignas(64) Horizon {
    double next_event = 0.0;
    std::size_t pending = 0;
  };
  // Producer-side accounting for the window in flight, one padded slot per
  // shard: the earliest due time and count of messages this shard posted.
  struct alignas(64) OutAcc {
    double min_t = std::numeric_limits<double>::infinity();
    std::size_t count = 0;
  };
  // The barrier's two hot words live on their own cache lines; `phase`
  // packs (generation << 1 | abort) into the single word waiters park on,
  // so an abort can wake parked threads through the same futex.
  struct alignas(64) PaddedAtomicU32 {
    std::atomic<std::uint32_t> v{0};
  };

  // One shard engine's recorder and the journal buffering its window.
  struct RecordBuffer;

  void worker(std::size_t shard);
  void drain_and_merge(std::size_t shard, std::size_t parity, std::vector<Msg>& merged,
                       double prev_window_end);
  // false = abort observed; leave the loop.  The last arriver feeds the
  // host's recorder the window that ended at `window_end` before it
  // releases the cohort.
  bool barrier_wait(double window_end);
  void abort_barrier();
  void flush_records(double window_end);
  // Owning shard of an entity key (post()'s ownership check).
  [[nodiscard]] std::size_t shard_of_key(std::uint32_t key) const;

  Config cfg_;
  std::size_t n_shards_ = 1;
  std::size_t n_nodes_ = 1;
  std::size_t n_mds_ = 1;
  double window_s_ = 0.0;
  std::vector<std::size_t> rank_lo_;  // S+1 node-aligned rank cuts
  std::vector<std::unique_ptr<Engine>> engines_;
  // Channels are double-buffered by round parity: round r drains buf[r & 1]
  // while the window that follows posts into buf[(r + 1) & 1].  The single
  // barrier separates a round's producers from its consumers (a producer
  // cannot re-enter parity p before every consumer of p has drained and
  // arrived), so no lock is needed anywhere on the message path.
  std::vector<std::vector<Msg>> channels_[2];  // [parity][src_shard * S + dst]
  std::vector<std::uint64_t> seq_;             // one per entity key
  std::vector<Horizon> horizon_;               // [parity * S + shard]
  std::vector<OutAcc> out_;                    // one per shard
  PaddedAtomicU32 barrier_phase_;              // generation << 1 | abort bit
  PaddedAtomicU32 barrier_count_;
  obs::prof::ShardProfiler* prof_ = nullptr;
  // Record path (set_recorder): each shard fills its own buffer in its
  // window; only the barrier's serial section reads and clears them.
  obs::Recorder* recorder_ = nullptr;
  std::vector<std::unique_ptr<RecordBuffer>> buffers_;  // one per shard
  std::vector<const obs::Journal*> buffer_journals_;     // merge_records' view
  std::vector<obs::Record> round_records_;
  double record_floor_ = 0.0;  // end of the window before the one flushing
  std::atomic<bool> corrupt_{false};
  std::vector<std::exception_ptr> errors_;
  std::uint64_t windows_executed_ = 0;  // written by shard 0 only
  std::uint64_t windows_skipped_ = 0;
  std::uint64_t rounds_ = 0;
  bool ran_ = false;
};

}  // namespace aio::sim
