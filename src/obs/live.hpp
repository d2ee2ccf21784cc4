// Online telemetry plane: live sliding-window attribution, straggler
// scoring, and a flight recorder.
//
// The journal (obs/journal.hpp) records what happened for *offline* analysis
// (obs/analysis.cpp); the live plane ingests the very same `Record` stream
// *during* the run and maintains, incrementally:
//
//   * the exhaustive writer-wait partition (mds / internal / external /
//     network) — cumulative totals that agree with the offline analyzer to
//     floating-point noise (CI gates the match at 1e-6), plus a sliding
//     window over a ring of fixed-duration slots;
//   * per-OST state: a time-decayed EWMA of external load (max of net/disk
//     background fractions), an EWMA of writer service time, and a
//     straggler score combining the two;
//   * per-group steal-benefit estimates keyed by `grant_seq`, priced online
//     against the same no-steal counterfactual the analyzer uses (queue
//     depth x source service time), with the live EWMA standing in for the
//     end-of-run mean;
//   * run-level timing: CoV over a bounded ring of recent run times and p99
//     from an `obs::Histogram` log-bucket sketch.
//
// The plane subscribes to the engine's record bus (obs/recorder.hpp):
// emission sites build one `Record` and emit it once, the recorder hands it
// to every attached subscriber, and an engine without observers pays one
// pointer test per site.  `ingest()` is allocation-free in steady
// state — all per-run state lives in vectors grown during the first (warm-
// up) run and reused thereafter — keeping the plane inside the hot-path
// budgets tests/test_alloc_guard enforces.
//
// The plane is a pure consumer: no simulated decision reads it, so a run
// with it attached is bit-identical to one without.  Its output:
//   * snapshots: when `AIO_LIVE=<path>` is set, a periodic daemon (armed by
//     the host next to the metrics sampler) appends one aio-live-v1 JSON
//     row per tick; `flush()` appends a `"final": true` row carrying the
//     cumulative attribution in the report's shape.  Rows are fflush()ed as
//     written, so a crashed run keeps every completed row.
//   * queries: `view()` and `straggler_score()` for hosts and tests.
//
// The flight recorder is a bounded ring of the most recent records.  On
// abort (bench watchdog, Simulation failure path) `dump_flight()` writes the
// ring as a *valid binary journal*, so a hung or failed run still yields
// evidence that tools/aio_report can analyze.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace aio::obs {

namespace prof {
class ShardProfiler;
}

/// One wait-attribution bucket: either a window slot or the cumulative
/// totals.  Components sum to `total_s` exactly (the partition is
/// exhaustive by construction, like the offline analyzer's).
struct LiveWait {
  double mds_s = 0.0;
  double internal_s = 0.0;
  double external_s = 0.0;
  double network_s = 0.0;
  double total_s = 0.0;
  std::uint64_t writers = 0;
};

/// Point-in-time view of one OST.
struct LiveOst {
  std::uint32_t ost = 0;
  double load_ewma = 0.0;       ///< EWMA of max(net_load, disk_load)
  double service_ewma_s = 0.0;  ///< EWMA of writer service time landing here
  double score = 0.0;           ///< straggler score (see straggler_score)
  std::uint64_t writes = 0;
  std::uint32_t m_dirty = 0;    ///< dirty streams at the last state change
};

/// Windowed run-time statistics: CoV over the recent-runs ring, p99 from
/// the cumulative log-bucket sketch.
struct LiveRunStats {
  std::uint64_t count = 0;
  double mean_s = 0.0;
  double cov = 0.0;
  double p99_s = 0.0;
};

struct LiveSteals {
  std::uint64_t completed = 0;
  double est_saved_s = 0.0;  ///< online counterfactual estimate, summed
};

/// One coherent snapshot for callers that want everything at once
/// (api::Simulation::live_view()).
struct LiveView {
  double t = 0.0;
  std::uint64_t runs = 0;
  LiveWait window;
  LiveWait cumulative;
  LiveRunStats run_time;
  LiveSteals steals;
  std::vector<LiveOst> stragglers;  ///< top-k by score desc, then OST id asc
};

class LivePlane {
 public:
  struct Config {
    /// aio-live-v1 snapshot destination (JSON rows, one per tick); empty
    /// keeps the plane query-only.
    std::string snapshot_path;
    double snapshot_period_s = 1.0;  ///< host daemon cadence (AIO_LIVE_PERIOD_S)
    double window_slot_s = 1.0;      ///< seconds per wait-window slot (AIO_LIVE_WINDOW_S)
    std::size_t window_slots = 16;   ///< ring length (AIO_LIVE_SLOTS)
    double ewma_tau_s = 2.0;         ///< time constant of the load/service EWMAs
    std::size_t run_window = 64;     ///< recent-runs ring for windowed CoV
    std::size_t flight_records = 65'536;  ///< flight-recorder ring; 0 disables
    std::string flight_path = "aio-flight.journal";  ///< dump_flight() target
  };

  explicit LivePlane(Config config);
  ~LivePlane();
  LivePlane(const LivePlane&) = delete;
  LivePlane& operator=(const LivePlane&) = delete;

  /// Builds a plane when `AIO_LIVE` (snapshot rows; "1"/"-" = query-only)
  /// or `AIO_FLIGHT` (flight-recorder dump path) is set; nullptr when both
  /// are unset.  Knobs AIO_LIVE_PERIOD_S / AIO_LIVE_WINDOW_S /
  /// AIO_LIVE_SLOTS / AIO_FLIGHT_RECORDS parse strictly (obs/env.hpp).
  /// Paths are numbered per machine like Journal::from_env: slot k writes
  /// `<path>.k+1`, the -1 default numbers planes in creation order.
  [[nodiscard]] static std::unique_ptr<LivePlane> from_env(int slot = -1);

  /// Folds one journal record into the live state.  Allocation-free once
  /// the first run has sized the per-run vectors.
  void ingest(const Record& r);

  // --- queries (the LiveView API) -------------------------------------------
  /// Latest simulated time seen by ingest().
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::uint64_t runs_completed() const { return runs_completed_; }

  /// Straggler score of one OST: its external-load EWMA plus the excess of
  /// its service-time EWMA over the fleet mean (0 for an unknown or
  /// unloaded OST).  Deterministic, and monotone in the load EWMA.
  [[nodiscard]] double straggler_score(std::uint32_t ost) const;

  /// Sum over the live window ring (the last window_slots * window_slot_s
  /// seconds of writer completions).
  [[nodiscard]] LiveWait window() const;
  /// Exact cumulative totals — the values CI compares against the offline
  /// analyzer's summary.attribution.
  [[nodiscard]] const LiveWait& cumulative() const { return cum_; }
  [[nodiscard]] LiveRunStats run_stats() const;
  [[nodiscard]] LiveSteals steals() const { return steals_; }
  /// Estimated seconds saved by steals sourced from `group` so far.
  [[nodiscard]] double steal_benefit_s(std::uint32_t group) const;
  [[nodiscard]] std::size_t n_osts_seen() const { return osts_.size(); }
  [[nodiscard]] LiveOst ost_view(std::uint32_t ost) const;
  /// Bounded top-k selection: O(n + n log k) per call, not a fleet sort.
  [[nodiscard]] LiveView view(std::size_t top_k = 8) const;

  // --- snapshot export ------------------------------------------------------
  [[nodiscard]] bool snapshot_enabled() const { return snap_ != nullptr; }
  /// One aio-live-v1 row at time `now` (or the latest ingested time).
  [[nodiscard]] Json snapshot_json(double now, bool final = false) const;
  /// Appends one row to the snapshot file (no-op when query-only).
  void snapshot_tick(double now);
  /// Appends the `"final": true` row and closes the snapshot file.
  /// Idempotent; safe to call from both failure paths and destructors.
  void flush();
  [[nodiscard]] std::uint64_t rows_written() const { return rows_; }
  /// Snapshot rows that could not be written (open or write failure).
  [[nodiscard]] std::uint64_t rows_dropped() const { return rows_dropped_; }

  // --- flight recorder ------------------------------------------------------
  [[nodiscard]] bool flight_enabled() const { return config_.flight_records > 0; }
  /// Records currently retained (<= config().flight_records).
  [[nodiscard]] std::size_t flight_size() const { return flight_.size(); }
  [[nodiscard]] std::uint64_t flight_total() const { return flight_total_; }
  /// Dumps the ring, oldest record first, as a loadable binary journal.
  [[nodiscard]] bool dump_flight() const { return dump_flight(config_.flight_path); }
  [[nodiscard]] bool dump_flight(const std::string& path) const;

  [[nodiscard]] const Config& config() const { return config_; }

  /// Attaches a host-runtime profiler (obs/prof.hpp).  When set, snapshot
  /// rows gain a `prof` block with the cumulative per-run host-time split —
  /// the live plane only *reads* the profiler's slots, so arming it changes
  /// nothing about ingest() or the simulated stream.
  void set_profiler(const prof::ShardProfiler* p) { prof_ = p; }
  [[nodiscard]] const prof::ShardProfiler* profiler() const { return prof_; }

 private:
  struct OstState {
    double last_t = 0.0;      // time of the last kOstState
    double ext = 0.0;         // current max(net_load, disk_load)
    double cum_ext = 0.0;     // integral of ext up to last_t
    double ext_at_open = 0.0; // integral snapshot at this run's t_open
    double load_ewma = 0.0;
    double load_ewma_t = -1.0;
    double svc_ewma = 0.0;
    double svc_ewma_t = -1.0;
    std::uint64_t writes = 0;
    std::uint32_t m_dirty = 0;
    /// Step-function integral of ext extended to time `t` >= last_t.
    [[nodiscard]] double cum_at(double t) const { return cum_ext + (t - last_t) * ext; }
  };
  struct WriterSlot {
    double signal_t = -1.0;
    double start_t = -1.0;
    double ext_at_signal = 0.0;  // home-OST load integral at signal time
    std::uint32_t target = 0;
    std::uint32_t origin = 0;
  };
  struct GrantSlot {
    double t = -1.0;
    double queue_depth = 0.0;
    std::uint32_t source = 0;
  };
  struct GroupState {
    double svc_ewma = 0.0;
    double svc_ewma_t = -1.0;
    std::uint64_t steals = 0;
    double est_saved_s = 0.0;
  };

  void ensure_ost(std::uint32_t id);
  /// Mean writer service time over the run so far (0 before any write).
  [[nodiscard]] double fleet_service_mean() const;
  /// straggler_score() of `o` against a precomputed fleet mean.
  [[nodiscard]] static double score_of(const OstState& o, double fleet);
  /// LiveOst row of a known OST whose score is already computed.
  [[nodiscard]] LiveOst row_of(std::uint32_t ost, double score) const;
  /// Advances the window ring to the slot containing `t`, zeroing skipped
  /// slots.
  LiveWait& slot_at(double t);
  /// Time-decayed EWMA update toward `v` observed at `t`.
  static double ewma_toward(double prev, double prev_t, double v, double t, double tau);
  void on_writer_end(const Record& r);
  [[nodiscard]] static Json wait_json(const LiveWait& w);

  Config config_;
  double now_ = 0.0;

  // Current-run context (reset at kRunBegin).
  double run_t_begin_ = 0.0;
  double run_t_open_ = -1.0;
  std::uint32_t run_writers_ = 0;
  std::uint64_t runs_completed_ = 0;

  std::vector<OstState> osts_;
  std::vector<WriterSlot> writers_;
  std::vector<std::uint32_t> file_ost_;
  std::vector<GrantSlot> grants_;   // indexed by grant_seq within the run
  std::vector<GroupState> groups_;  // cross-run: EWMAs + steal totals

  // Fleet-wide service statistics (straggler-score denominator).
  std::uint64_t svc_count_ = 0;
  double svc_sum_ = 0.0;

  // Wait-window ring + cumulative totals.
  std::vector<LiveWait> slots_;
  std::int64_t cur_slot_ = INT64_MIN;
  LiveWait cum_;

  // Run-level timing.
  std::vector<double> run_ring_;
  std::size_t run_ring_next_ = 0;
  Histogram run_hist_;

  LiveSteals steals_;
  std::uint64_t mds_ops_ = 0;
  double mds_service_s_ = 0.0;
  // Per-server attribution of the same stream, indexed by the record's MDS
  // id; single-server runs keep one slot and the snapshot stays flat.
  struct LiveMds {
    std::uint64_t ops = 0;
    std::uint64_t items = 0;
    double service_s = 0.0;
    std::uint32_t peak_queue = 0;
  };
  std::vector<LiveMds> mds_servers_;

  std::vector<Record> flight_;
  std::size_t flight_next_ = 0;
  std::uint64_t flight_total_ = 0;

  const prof::ShardProfiler* prof_ = nullptr;

  std::FILE* snap_ = nullptr;
  std::uint64_t rows_ = 0;
  std::uint64_t rows_dropped_ = 0;
  bool flushed_ = false;
};

}  // namespace aio::obs
