// Shared plumbing for the paper-reproduction bench binaries.
//
// Every bench assembles a simulated machine from a MachineSpec, runs
// transports on it, and prints the same rows/series the paper's table or
// figure reports.  Sample counts, scale caps, and observability honour
// environment variables so the full 40-sample runs of the paper are one
// export away:
//
//   AIO_BENCH_SAMPLES    overrides each bench's default sample count
//   AIO_BENCH_THREADS    replication thread pool (bench/parallel.hpp);
//                        default hardware_concurrency, 1 = serial
//   AIO_BENCH_MAX_PROCS  caps the largest writer count (default 16384;
//                        parsing and truncation warnings in bench/env.hpp)
//   AIO_BENCH_JSON       writes machine-readable results (bench/report.hpp)
//   AIO_BENCH_MAX_STEPS  engine-step watchdog: abort (with diagnostics and
//                        a trace dump) instead of spinning on a hung run
//   AIO_MDS_COUNT        metadata servers in the tier (default: the spec's
//                        n_mds, i.e. 1; parsing in bench/env.hpp)
//
// The AIO_* observability outputs below apply to every host that runs a
// simulated machine — bench::Machine, api::Simulation and both macro
// benches — through one observer host (obs::Observers), which gives each
// machine's artifacts the same path number:
//
//   AIO_TRACE            Chrome trace_event JSON per machine (Perfetto),
//                        rendered from the machine's journal at flush
//   AIO_METRICS          metrics registry JSON per machine
//   AIO_JOURNAL          binary run journal per machine (tools/aio_report)
//   AIO_REPORT           end-of-run analysis: terse stdout summary, plus the
//                        aio-report-v1 JSON when the value is a path
//                        ("-" or "1" = summary only)
//   AIO_OBS_PERIOD_S     sampling period for per-OST series of the first 32
//                        OSTs (default 1.0)
//   AIO_LIVE             online telemetry plane per machine: a path streams
//                        aio-live-v1 snapshot rows, "-" or "1" = query-only
//   AIO_LIVE_PERIOD_S    live snapshot cadence in sim seconds (default 1.0)
//   AIO_FLIGHT           flight recorder: a ring of the last 65,536 journal
//                        records dumped to this path on watchdog abort
//                        (readable by tools/aio_report)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/transports/adaptive_transport.hpp"
#include "env.hpp"
#include "core/transports/layout.hpp"
#include "core/transports/mpiio_transport.hpp"
#include "core/transports/posix_transport.hpp"
#include "fs/filesystem.hpp"
#include "fs/interference.hpp"
#include "fs/machine.hpp"
#include "net/network.hpp"
#include "obs/analysis.hpp"
#include "obs/observers.hpp"
#include "report.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace aio::bench {

inline std::size_t samples_or(std::size_t fallback) {
  return env_size("AIO_BENCH_SAMPLES", fallback);
}

/// A fully assembled simulated machine.
struct Machine {
  fs::MachineSpec spec;
  // Observers precede engine: the engine captures their recorder.  They arm
  // the registry only under AIO_METRICS, so a default machine's engine has
  // a null recorder and pays nothing.
  obs::Observers observers;
  // Non-owning views of the armed subscribers (null when unarmed).
  obs::Journal* journal;
  obs::LivePlane* live;
  obs::Registry* metrics;
  sim::Engine engine;
  fs::FileSystem filesystem;
  net::Network network;
  std::optional<fs::BackgroundLoad> load;
  std::optional<fs::InterferenceJob> job;

  /// `obs_slot` numbers this machine's AIO_* output paths when
  /// several machines coexist in one process: slot 0 writes `<path>`, slot k
  /// writes `<path>.k+1`.  The default (-1) falls back to first-come
  /// numbering — fine serially, nondeterministic under AIO_BENCH_THREADS>1,
  /// so benches that run machines in parallel pass their unit index.
  /// AIO_MDS_COUNT widens the metadata tier of any bench machine; the
  /// override applies only when the variable is set, so specs keep their
  /// own n_mds (and every default stdout stays byte-identical) otherwise.
  static fs::MachineSpec apply_env(fs::MachineSpec s) {
    if (std::getenv("AIO_MDS_COUNT") != nullptr) s.fs.n_mds = mds_count();
    return s;
  }

  Machine(fs::MachineSpec machine_spec, std::uint64_t seed, bool with_load,
          std::size_t min_ranks = 0, int obs_slot = -1)
      : spec(apply_env(std::move(machine_spec))),
        observers(obs_slot),
        journal(observers.journal()),
        live(observers.live()),
        metrics(observers.metrics()),
        engine(observers.recorder()),
        filesystem(engine, spec.fs),
        network(engine,
                net::NetConfig{spec.msg_latency_s, spec.nic_bw, spec.cores_per_node},
                std::max(min_ranks, spec.total_cores())) {
    if (metrics)
      filesystem.register_probes(observers.sample_every(env_double("AIO_OBS_PERIOD_S", 1.0)));
    // Daemons before the load, so same-time tie-breaks stay as they were.
    observers.attach(engine);
    if (with_load) {
      load.emplace(engine, sim::Rng(seed).fork(1), spec.load, filesystem.ost_pointers());
      load->start();
    }
  }

  ~Machine() { flush_obs(); }
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Installs the paper's Section IV artificial interference job.
  void add_interference_job() {
    job.emplace(engine, fs::InterferenceJob::Config{}, filesystem.ost_pointers());
  }

  /// Writes the journal, trace, report, live and metrics artifacts
  /// (obs::Observers::flush; also called on destruction and on watchdog
  /// abort, so a hung run still leaves its evidence behind).  Only the
  /// first call writes; it also adds this machine's drop counters to the
  /// bench JSON's totals, so the JSON records whether any observability
  /// channel lost data.
  void flush_obs(bool aborted = false) {
    if (!observers.flush(aborted) || (!journal && !live)) return;
    ObsDropTotals& totals = obs_drop_totals();
    if (journal) totals.journal.fetch_add(journal->dropped(), std::memory_order_relaxed);
    if (live) totals.live_rows.fetch_add(live->rows_dropped(), std::memory_order_relaxed);
    totals.published.store(true, std::memory_order_relaxed);
  }

  /// Runs one collective output; starts/stops the interference job around
  /// it.  `AIO_BENCH_MAX_STEPS` bounds the engine steps per run: a protocol
  /// that hangs (or livelocks at one timestamp) aborts with diagnostics and
  /// a trace dump instead of spinning forever.
  core::IoResult run(core::Transport& transport, const core::IoJob& io_job) {
    if (job) job->start();
    std::optional<core::IoResult> result;
    transport.run(io_job, [&](core::IoResult r) {
      result = std::move(r);
      if (job) job->stop();
    });
    const std::size_t max_steps = env_size("AIO_BENCH_MAX_STEPS", 0);
    if (max_steps == 0) {
      engine.run();
    } else {
      engine.run(max_steps);
      if (!result && engine.pending_normal() > 0)
        fail(transport, "engine watchdog tripped after " + std::to_string(max_steps) +
                            " steps (AIO_BENCH_MAX_STEPS)");
    }
    if (!result) fail(transport, "transport did not complete (event queue drained)");
    return *result;
  }

  /// Advances wall-clock (compute phase between output steps).
  void advance(double seconds) { engine.run_until(engine.now() + seconds); }

 private:
  [[noreturn]] void fail(const core::Transport& transport, const std::string& what) {
    std::string msg = "bench: " + transport.name() + ": " + what +
                      " [t=" + std::to_string(engine.now()) +
                      "s steps=" + std::to_string(engine.steps()) +
                      " pending=" + std::to_string(engine.pending()) +
                      " pending_normal=" + std::to_string(engine.pending_normal()) + "]";
    if (metrics) {
      for (const auto& [name, c] : metrics->counters())
        msg += " " + name + "=" + std::to_string(c.value());
    }
    flush_obs(/*aborted=*/true);
    if (const char* trace = std::getenv("AIO_TRACE"); trace && *trace)
      msg += "; trace dumped to " + obs::numbered_path(trace, observers.slot());
    if (live && live->flight_enabled())
      msg += "; flight recorder dumped to " + live->config().flight_path;
    throw std::runtime_error(msg);
  }
};

inline void banner(const char* binary, const char* reproduces, const char* setup) {
  std::printf("================================================================\n");
  std::printf("%s\n", binary);
  std::printf("Reproduces: %s\n", reproduces);
  std::printf("Setup:      %s\n", setup);
  std::printf("================================================================\n\n");
}

inline std::string mb(double bytes) { return stats::Table::bytes(bytes); }

}  // namespace aio::bench
