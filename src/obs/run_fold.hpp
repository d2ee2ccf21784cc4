// The record fold: the one place run-scoped journal records are interpreted.
//
// The offline report (obs/analysis.cpp, through a Sink), the critical path
// (the PathInputs a closing run leaves) and the live plane (obs/live.cpp)
// all drive a RunFold record by record, so the live plane's final
// attribution equals the report's bit for bit.
//
// External load is a step function per OST.  For each OST the fold keeps the
// closed terms of its integral since the open run's t_open plus the open
// segment, so a writer's queue interval [t_open, signal] is priced in O(1)
// when its signal arrives — summed term by term in segment order, the same
// floating-point sum a scan of the OST's whole timeline gives.  The run's
// own segments are logged for the anchor writer's [start, end] integral
// (only with a Sink: the path is for it alone).
//
// A run closes at the next kRunBegin or at finish(): its writers are visited
// in rank order (the closed totals are summed in that order); with a Sink,
// completed steal chains are then priced against the no-steal
// counterfactual (queue depth x the source file's mean write time this run),
// the anchor is picked, and the Sink sees the run.  Until then the open run contributes a partial split,
// summed as writers finish.
//
// Ingest is allocation-free once a run of the same shape has sized the
// vectors.  Ids are bounded before they index anything — writer, file and
// grant ids by the open run's declared sizes, OST and MDS ids and the
// declared sizes by the ceilings below — and a record breaking a bound, or
// carrying a non-finite number, an unknown kind or mark, is counted in
// `malformed()` and otherwise ignored: a corrupt journal costs at most the
// ceilings' worth of memory.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/journal.hpp"
#include "stats/summary.hpp"

namespace aio::obs {

/// One writer-wait partition: the components sum to `total_s` (run begin ->
/// first data byte), exhaustively.
struct WaitSplit {
  double mds_s = 0.0;
  double internal_s = 0.0;
  double external_s = 0.0;
  double network_s = 0.0;
  double total_s = 0.0;
  std::uint64_t writers = 0;

  WaitSplit& operator+=(const WaitSplit& o) {
    mds_s += o.mds_s;
    internal_s += o.internal_s;
    external_s += o.external_s;
    network_s += o.network_s;
    total_s += o.total_s;
    writers += o.writers;
    return *this;
  }
};

class RunFold {
 public:
  /// Ceiling on a run's declared writers and files.  The largest machine
  /// modelled (full Jaguar) runs 224,160 writers.
  static constexpr std::uint32_t kMaxRunSize = 1u << 20;
  /// Ceiling on OST ids (Jaguar has 672 OSTs).
  static constexpr std::uint32_t kMaxOsts = 1u << 16;
  /// Ceiling on metadata-server ids.
  static constexpr std::uint32_t kMaxMds = 1u << 10;

  struct Run {
    std::uint32_t id = 0;
    std::uint32_t n_writers = 0;
    std::uint32_t n_files = 0;
    std::uint32_t n_osts = 0;
    double t_begin = 0.0;
    double t_open = -1.0;       ///< kOpenDone; < 0 until seen
    double t_data_done = -1.0;  ///< kDataDone
    double t_complete = -1.0;   ///< kComplete
    double steals = 0.0;        ///< kComplete v0
    double grants = 0.0;        ///< kComplete v1
    std::uint64_t mds_ops = 0;
    double mds_service_s = 0.0;
    double mds_open_s = 0.0;   ///< MDS service before kOpenDone (the open storm)
    double mds_close_s = 0.0;  ///< MDS service from kDataDone on (close traffic)
  };

  struct Writer {
    double signal_t = -1.0;
    double start_t = -1.0;
    double end_t = -1.0;
    double bytes = 0.0;
    double queue_ext_s = 0.0;  ///< home-OST load integral over [t_open, signal_t]
    std::uint32_t target = 0;  ///< file written
    std::uint32_t origin = 0;  ///< home group (= home file)
    std::uint32_t grant_seq = 0;
    bool adaptive = false;     ///< the signal was a steal redirect
  };

  struct Grant {
    double grant_t = -1.0;
    double complete_t = -1.0;
    double queue_depth = 0.0;  ///< source writers still queued at the grant
    double saved_s = 0.0;      ///< vs the no-steal counterfactual; set at close (Sink)
    std::uint32_t source = 0;  ///< group stolen from
    [[nodiscard]] bool completed() const { return grant_t >= 0.0 && complete_t >= 0.0; }
  };

  struct Mds {
    std::uint64_t ops = 0;    ///< requests dispatched (a batch counts once)
    std::uint64_t items = 0;  ///< operations carried (a batch counts its size)
    double service_s = 0.0;
    std::uint32_t peak_queue = 0;  ///< deepest backlog behind a dispatch
  };

  /// Sees each run as it closes, while its writers, chains and path inputs
  /// are readable through the fold.
  class Sink {
   public:
    virtual void run_closed(const RunFold& fold) = 0;

   protected:
    ~Sink() = default;
  };

  explicit RunFold(Sink* sink = nullptr);

  /// Folds one record.  False when it is malformed (counted, ignored).
  /// Run-scoped records outside any run are ignored without complaint: a
  /// flight-recorder dump starts mid-run.
  bool ingest(const Record& r);
  /// Closes the open run, if any.
  void finish();

  // --- the open (or, inside Sink::run_closed, the closing) run --------------
  [[nodiscard]] bool run_open() const { return open_; }
  [[nodiscard]] const Run& run() const { return run_; }
  [[nodiscard]] const std::vector<Writer>& writers() const { return writers_; }
  /// Writer slot of `rank` in the open run; nullptr outside a run.
  [[nodiscard]] const Writer* writer(std::uint32_t rank) const {
    return open_ && rank < writers_.size() ? &writers_[rank] : nullptr;
  }
  /// Steal chains by grant_seq (unused ids keep grant_t < 0).
  [[nodiscard]] const std::vector<Grant>& grants() const { return grants_; }
  [[nodiscard]] const Grant* grant(std::uint32_t seq) const {
    return open_ && seq < grants_.size() ? &grants_[seq] : nullptr;
  }
  /// OST of `file`; 0 when unmapped.
  [[nodiscard]] std::uint32_t file_ost(std::uint32_t file) const {
    return file < file_ost_.size() ? file_ost_[file] : 0;
  }
  /// `w`'s wait split under the open run's marks (writers = 0); false when
  /// the wait is not attributable (no kOpenDone, or no write signal).
  /// `w.start_t` must be observed.
  bool split(const Writer& w, WaitSplit& out) const;
  /// Critical-path inputs of the closing run (valid in Sink::run_closed).
  [[nodiscard]] const PathInputs& path() const { return path_; }

  // --- across runs -----------------------------------------------------------
  /// Closed runs' splits, summed run by run in rank order.
  [[nodiscard]] const WaitSplit& closed() const { return closed_; }
  /// closed() plus the open run's partial (summed in completion order).
  [[nodiscard]] WaitSplit cumulative() const;
  /// OSTs known: declared by runs, mapped by files, or reporting state.
  [[nodiscard]] std::size_t n_osts() const { return osts_.size(); }
  [[nodiscard]] std::uint64_t mds_ops() const { return mds_ops_; }
  [[nodiscard]] double mds_service_s() const { return mds_service_s_; }
  /// Per-server aggregates by MDS id (ids never seen have ops == 0).
  [[nodiscard]] const std::vector<Mds>& mds_servers() const { return mds_; }
  [[nodiscard]] std::uint64_t malformed() const { return malformed_; }

 private:
  struct OstLoad {
    double seg_t = 0.0;       // start of the current constant-load segment
    double ext = 0.0;         // its max(net_load, disk_load)
    double since_open = 0.0;  // closed integral terms since the open run's t_open
    bool seen = false;        // any kOstState yet
  };
  struct LoadSeg {
    double t;
    double ext;
    std::uint32_t ost;
  };

  void close_run();
  void ensure_osts(std::size_t n);
  /// Load integral of OST `ost` over [t_open, t], t at or after every
  /// segment the fold has seen.
  [[nodiscard]] double queue_integral(std::uint32_t ost, double t) const;
  /// Load integral of OST `ost` over [a, b] from the run's segment log.
  [[nodiscard]] double logged_integral(std::uint32_t ost, double a, double b) const;
  bool reject() {
    ++malformed_;
    return false;
  }

  Sink* sink_;
  bool open_ = false;
  Run run_;
  std::vector<Writer> writers_;
  std::vector<std::uint32_t> file_ost_;
  std::vector<Grant> grants_;
  std::vector<stats::Summary> file_service_;  // write times by file, filled at close
  std::vector<OstLoad> osts_;
  std::vector<LoadSeg> log_;  // the open run's load segments, seeded at kRunBegin
  PathInputs path_;

  WaitSplit closed_;
  WaitSplit partial_;
  std::uint64_t mds_ops_ = 0;
  double mds_service_s_ = 0.0;
  std::vector<Mds> mds_;
  std::uint64_t malformed_ = 0;
};

}  // namespace aio::obs
