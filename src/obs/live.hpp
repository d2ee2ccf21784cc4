// Online telemetry plane: live sliding-window attribution, straggler
// scoring, and a flight recorder.
//
// The journal (obs/journal.hpp) records what happened for *offline* analysis
// (obs/analysis.cpp); the live plane ingests the very same `Record` stream
// *during* the run.  Both drive the one record fold (obs/run_fold.hpp), so
// the run-scoped interpretation — marks, file map, writer slots, steal
// chains, external-load integrals, MDS aggregates — exists once.  On top of
// the fold the plane keeps, incrementally:
//
//   * the exhaustive writer-wait partition (mds / internal / external /
//     network): cumulative totals (the fold's closed runs plus the open
//     run's partial; after flush() exactly the report's summary.attribution,
//     which CI checks for equality) and a sliding window over a ring of
//     fixed-duration slots;
//   * per-OST state: a time-decayed EWMA of external load (max of net/disk
//     background fractions), an EWMA of writer service time, and a
//     straggler score combining the two;
//   * steal-benefit estimates: each completed chain priced online against
//     the same no-steal counterfactual the analyzer uses (queue depth x
//     source service time), with a per-file service EWMA standing in for the
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
//     row per tick; `flush()` closes the fold's open run and appends a
//     `"final": true` row carrying the cumulative attribution in the
//     report's shape.  Rows are fflush()ed as written, so a crashed run
//     keeps every completed row.
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
#include "obs/run_fold.hpp"

namespace aio::obs {

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
  WaitSplit window;
  WaitSplit cumulative;
  LiveRunStats run_time;
  LiveSteals steals;
  std::vector<LiveOst> stragglers;  ///< top-k by score desc, then OST id asc
};

class LivePlane {
 public:
  static constexpr double kWindowSlotS = 1.0;    ///< seconds per wait-window slot
  static constexpr std::size_t kWindowSlots = 16;  ///< window ring length
  static constexpr double kEwmaTauS = 2.0;       ///< load/service EWMA time constant
  static constexpr std::size_t kRunWindow = 64;  ///< recent-runs ring for windowed CoV

  struct Config {
    /// aio-live-v1 snapshot destination (JSON rows, one per tick); empty
    /// keeps the plane query-only.
    std::string snapshot_path;
    double snapshot_period_s = 1.0;  ///< host daemon cadence (AIO_LIVE_PERIOD_S)
    std::size_t flight_records = 65'536;  ///< flight-recorder ring; 0 disables
    std::string flight_path = "aio-flight.journal";  ///< dump_flight() target
  };

  explicit LivePlane(Config config);
  ~LivePlane();
  LivePlane(const LivePlane&) = delete;
  LivePlane& operator=(const LivePlane&) = delete;

  /// Builds a plane when `AIO_LIVE` (snapshot rows; "1"/"-" = query-only)
  /// or `AIO_FLIGHT` (flight-recorder dump path) is set; nullptr when both
  /// are unset.  AIO_LIVE_PERIOD_S parses strictly (obs/env.hpp); the
  /// other Config fields keep their defaults.  Paths are numbered per
  /// machine `slot` (numbered_path), which obs::Observers resolves.
  [[nodiscard]] static std::unique_ptr<LivePlane> from_env(int slot);

  /// Folds one journal record into the live state.  Allocation-free once
  /// the first run has sized the per-run vectors.  Malformed records
  /// (RunFold::ingest) are kept by the flight recorder and otherwise ignored.
  void ingest(const Record& r);

  // --- queries (the LiveView API) -------------------------------------------
  /// Latest simulated time seen by ingest().
  [[nodiscard]] double now() const { return now_; }
  [[nodiscard]] std::uint64_t runs_completed() const { return runs_completed_; }

  /// Straggler score of one OST: its external-load EWMA plus the excess of
  /// its service-time EWMA over the fleet mean (0 for an unknown or
  /// unloaded OST).  Deterministic, and monotone in the load EWMA.
  [[nodiscard]] double straggler_score(std::uint32_t ost) const;

  /// Sum over the live window ring (the last kWindowSlots * kWindowSlotS
  /// seconds of writer completions).
  [[nodiscard]] WaitSplit window() const;
  /// Closed runs plus the open run's partial; after flush() exactly the
  /// offline analyzer's summary.attribution.
  [[nodiscard]] WaitSplit cumulative() const { return fold_.cumulative(); }
  [[nodiscard]] LiveRunStats run_stats() const;
  [[nodiscard]] LiveSteals steals() const { return steals_; }
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
  /// Closes the fold's open run, appends the `"final": true` row and closes
  /// the snapshot file.  Idempotent; safe to call from both failure paths
  /// and destructors.
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

 private:
  struct OstState {
    double load_ewma = 0.0;
    double load_ewma_t = -1.0;
    double svc_ewma = 0.0;
    double svc_ewma_t = -1.0;
    std::uint64_t writes = 0;
    std::uint32_t m_dirty = 0;
  };
  /// Service EWMA of one file (the steal counterfactual's source rate).
  struct GroupState {
    double svc_ewma = 0.0;
    double svc_ewma_t = -1.0;
  };

  /// Mean writer service time over the run so far (0 before any write).
  [[nodiscard]] double fleet_service_mean() const;
  /// straggler_score() of `o` against a precomputed fleet mean.
  [[nodiscard]] static double score_of(const OstState& o, double fleet);
  /// LiveOst row of a known OST whose score is already computed.
  [[nodiscard]] LiveOst row_of(std::uint32_t ost, double score) const;
  /// Advances the window ring to the slot containing `t`, zeroing skipped
  /// slots.
  WaitSplit& slot_at(double t);
  /// Time-decayed EWMA update (time constant kEwmaTauS) toward `v`
  /// observed at `t`.
  static double ewma_toward(double prev, double prev_t, double v, double t);
  void on_writer_end(const Record& r);
  [[nodiscard]] static Json wait_json(const WaitSplit& w);

  Config config_;
  RunFold fold_;
  double now_ = 0.0;
  std::uint64_t runs_completed_ = 0;

  std::vector<OstState> osts_;      // sized to the fold's OSTs
  std::vector<GroupState> groups_;  // by file, across runs

  // Fleet-wide service statistics (straggler-score denominator).
  std::uint64_t svc_count_ = 0;
  double svc_sum_ = 0.0;

  // Wait-window ring.
  std::vector<WaitSplit> slots_;
  std::int64_t cur_slot_ = INT64_MIN;

  // Run-level timing.
  std::vector<double> run_ring_;
  std::size_t run_ring_next_ = 0;
  Histogram run_hist_;

  LiveSteals steals_;

  std::vector<Record> flight_;
  std::size_t flight_next_ = 0;
  std::uint64_t flight_total_ = 0;

  std::FILE* snap_ = nullptr;
  std::uint64_t rows_ = 0;
  std::uint64_t rows_dropped_ = 0;
  bool flushed_ = false;
};

}  // namespace aio::obs
