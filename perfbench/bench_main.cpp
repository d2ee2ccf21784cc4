// Benchmark program: runs one workload as a closed loop with one client and
// prints one JSON document (the last stdout line) that perfbench/run.py
// reduces to the benchmark's metrics.
//
//   aio_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <chrome-trace.json>]
//
// Workloads (see perfbench/README.md for why each was chosen):
//   jaguar65k           one cold adaptive collective, 65,536 writers, classic
//                       engine, observers off
//   jaguar224k_sharded  one cold adaptive collective, 224,160 writers, through
//                       core::ShardedAdaptiveSim (kShards shards)
//   fig7_observed       the Fig. 7 loop on one loaded Jaguar machine with the
//                       journal, live plane and metrics sampler armed (through
//                       AIO_JOURNAL / AIO_LIVE / AIO_METRICS), ending in
//                       obs::analyze
//
// Every layer is reached from outside, by timing the calls this file makes
// into public entry points.  An iteration is set-up (timed as setup_s) plus
// the timed work (wall_s); iterations repeat until --seconds have elapsed.
// Host times are reported in reference-clock seconds (see probe_host_clock).
// With --trace 1 every other iteration records spans `<layer>.<phase>` in
// memory around those calls (the rest stay untraced so the run can report
// its own tracing overhead), the shard profiler is armed on traced sharded
// iterations, and the spans are written as Chrome trace-event JSON.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/transports/sharded.hpp"
#include "harness.hpp"
#include "workload/pixie3d.hpp"

namespace {

using namespace aio;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kJaguar65k = 65536;
constexpr std::size_t kJaguarFull = 224160;  // 18,680 nodes x 12 cores
// One shard: the shard group of one that the sharded engine runs everywhere
// once it is the only engine.  At 3 or 4 shards the run's own busy threads
// draw hypervisor steal on a shared 4-vCPU host, and its wall time swings
// from 1.5 s to 6-12 s between runs; at 1 shard it holds within a few %.
constexpr std::size_t kShards = 1;
constexpr std::size_t kFig7Writers = 8192;   // 16 procs per adaptive target
constexpr std::size_t kFig7Pairs = 16;       // MPI-IO + adaptive steps per loop
constexpr double kFig7IdleS = 600.0;         // compute phase between steps
constexpr std::size_t kMinIterations = 3;    // set-up repeats at least this often
// The adaptive indices are a few hundred bytes per block next to megabytes
// of payload; this bounds them at four serialized copies of every writer's
// blueprint (per-file index, global index, and slack for headers).
constexpr double kIndexCopies = 4.0;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- host clock probe ---------------------------------------------------------

constexpr int kProbeItems = 1000000;  // 8 MB of doubles: past L2, like the engine
/// The probe's median time on the host the benchmark was defined on (a
/// 4-vCPU x86-64 VM); it only scales the reported numbers.
constexpr double kProbeRefS = 0.30;

double g_probe_sink = 0.0;

/// Times a fixed binary-heap kernel: kProbeItems doubles pushed, then
/// drained.  It runs before every iteration and shares no code with the
/// simulator; like the event engine it is bound by compute and by a working
/// set past the private caches.  Shared hosts drift in speed by tens of
/// percent over minutes as the neighbours' load changes, and the probe
/// drifts with them, so every host time is reported in reference-clock
/// seconds: measured seconds x kProbeRefS / probe.
double probe_host_clock() {
  const auto t0 = Clock::now();
  std::priority_queue<double> pq;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;  // xorshift64: a fixed sequence
  for (int k = 0; k < kProbeItems; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    pq.push(static_cast<double>(x >> 11));
  }
  double acc = 0.0;
  while (!pq.empty()) {
    acc += pq.top();
    pq.pop();
  }
  g_probe_sink += acc;
  return since(t0);
}

// --- spans ------------------------------------------------------------------

/// In-memory span recorder.  Spans nest through a stack; each remembers its
/// parent and the iteration span it belongs to.  Off, it records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
    int iteration = -1;
  };

  /// RAII scope around one call.
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  bool on = false;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations of the spans named `name` inside iteration span `it`.
  [[nodiscard]] std::vector<double> durations(int it, const std::string& name) const {
    std::vector<double> out;
    for (const Span& sp : spans_)
      if (sp.iteration == it && sp.name == name) out.push_back(sp.t1 - sp.t0);
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  [[nodiscard]] obs::Json chrome() const {
    obs::Json events = obs::Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      obs::Json args = obs::Json::object();
      args.set("id", static_cast<double>(i));
      args.set("parent", sp.parent);
      args.set("iteration", sp.iteration);
      obs::Json e = obs::Json::object();
      e.set("name", sp.name);
      e.set("cat", sp.name.substr(0, sp.name.find('.')));
      e.set("ph", "X");
      e.set("ts", sp.t0 * 1e6);
      e.set("dur", (sp.t1 - sp.t0) * 1e6);
      e.set("pid", 1);
      e.set("tid", 1);
      e.set("args", std::move(args));
      events.push(std::move(e));
    }
    obs::Json doc = obs::Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
  }

 private:
  int open(const char* name) {
    if (!on) return -1;
    const int id = static_cast<int>(spans_.size());
    const int parent = stack_.empty() ? -1 : stack_.back();
    const int iteration = stack_.empty() ? id : stack_.front();
    spans_.push_back({name, since(origin_), 0.0, parent, iteration});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1 = since(origin_);
    stack_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- helpers ----------------------------------------------------------------

/// Heap bytes in use (glibc arena + mmapped chunks).
double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks) + static_cast<double>(mi.hblkhd);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double stddev(const std::vector<double>& v) {
  stats::Summary s;
  for (const double x : v) s.add(x);
  return s.stddev();
}

double cov(const std::vector<double>& v) {
  stats::Summary s;
  for (const double x : v) s.add(x);
  return s.cv();
}

perfbench::Expect expect_for(const core::IoJob& job, bool adaptive) {
  perfbench::Expect e;
  e.job_bytes = job.total_bytes();
  e.writers = job.n_writers();
  e.adaptive = adaptive;
  double index_bytes = 0.0;
  for (std::size_t r = 0; r < job.n_writers(); ++r) {
    const core::LocalIndex li = job.blueprint_for(static_cast<core::Rank>(r));
    e.blocks += li.blocks.size();
    index_bytes += static_cast<double>(li.serialized_size());
  }
  e.index_allowance = adaptive ? kIndexCopies * index_bytes : 0.0;
  return e;
}

net::NetConfig net_config(const fs::MachineSpec& spec) {
  return net::NetConfig{spec.msg_latency_s, spec.nic_bw, spec.cores_per_node};
}

// --- per-iteration record -----------------------------------------------------

/// What one iteration measured.  `layers` holds the per-layer counters of
/// the iteration; the per-layer timings come from the tracer's spans.  Host
/// times are kept as measured; `scale` converts them to reference-clock
/// seconds.
struct Iteration {
  bool traced = false;
  int span = -1;  ///< the iteration's root span when traced
  double probe_s = 0.0;  ///< probe_host_clock() just before the iteration
  double scale = 1.0;    ///< kProbeRefS / probe_s
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::size_t collectives = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> layers;
};

/// Logs a collective's violated checks; true when there were any.
bool record_failures(Iteration& it, std::size_t collective, const std::vector<std::string>& bad) {
  for (const std::string& b : bad)
    it.failures.push_back("collective " + std::to_string(collective) + ": " + b);
  return !bad.empty();
}

void record_fs(Iteration& it, fs::FileSystem& fs) {
  it.layers["fs.bytes_submitted"] = fs.total_bytes_submitted();
  it.layers["fs.mds_ops"] = static_cast<double>(fs.mds_group().completed_ops());
  it.layers["fs.mds_items"] = static_cast<double>(fs.mds_group().completed_items());
  it.layers["fs.mds_peak_backlog"] = static_cast<double>(fs.mds_group().peak_backlog());
}

void record_net(Iteration& it, const net::Network& net) {
  it.layers["net.messages"] = static_cast<double>(net.messages_sent());
  it.layers["net.bytes"] = net.bytes_sent();
}

void record_result(Iteration& it, const core::IoResult& r) {
  it.layers["core.steals"] += static_cast<double>(r.steals);
  it.layers["core.grants"] += static_cast<double>(r.grants_issued);
  it.layers["core.blocks_indexed"] += static_cast<double>(r.total_blocks_indexed);
  it.layers["model.sim_s"] += r.io_seconds();
}

// --- workloads ----------------------------------------------------------------

/// One cold adaptive collective on the classic engine (jaguar65k, and the
/// classic reference of jaguar224k_sharded).
void classic_collective(Tracer& tr, Iteration& it, std::size_t procs,
                        const perfbench::Expect& expect) {
  const fs::MachineSpec spec = fs::jaguar();
  const double heap0 = heap_bytes();
  const auto t_setup = Clock::now();
  std::optional<core::IoJob> job;
  {
    Tracer::Scope s(tr, "workload.job");
    job.emplace(workload::pixie3d_job(workload::Pixie3dConfig::small_model(), procs));
  }
  sim::Engine engine;
  std::optional<fs::FileSystem> filesystem;
  {
    Tracer::Scope s(tr, "fs.build");
    filesystem.emplace(engine, spec.fs);
  }
  std::optional<net::Network> network;
  {
    Tracer::Scope s(tr, "net.build");
    network.emplace(engine, net_config(spec), procs);
  }
  core::AdaptiveTransport::Config cfg;  // n_files = 0: one file per OST
  cfg.retain_global_index = false;      // streamed merge
  std::optional<core::AdaptiveTransport> transport;
  {
    Tracer::Scope s(tr, "core.build");
    transport.emplace(*filesystem, *network, cfg);
  }
  it.setup_s = since(t_setup);

  const auto t_wall = Clock::now();
  std::optional<core::IoResult> result;
  {
    Tracer::Scope s(tr, "core.issue");
    transport->run(*job, [&](core::IoResult r) { result = std::move(r); });
  }
  {
    Tracer::Scope s(tr, "sim.run");
    engine.run();
  }
  it.wall_s = since(t_wall);

  it.collectives = 1;
  if (!result) throw std::runtime_error("adaptive collective did not complete");
  it.failed = record_failures(
      it, 0, perfbench::check_collective(expect, *result, filesystem->total_bytes_submitted()));

  it.layers["sim.events"] = static_cast<double>(engine.steps());
  record_net(it, *network);
  record_fs(it, *filesystem);
  record_result(it, *result);
  it.layers["core.bytes_per_writer"] = (heap_bytes() - heap0) / static_cast<double>(procs);
}

/// One cold 224,160-writer collective through the sharded engine.
void sharded_collective(Tracer& tr, Iteration& it, const perfbench::Expect& expect) {
  const fs::MachineSpec spec = fs::jaguar();
  obs::prof::ShardProfiler prof;
  const double heap0 = heap_bytes();
  const auto t_setup = Clock::now();
  std::optional<core::IoJob> job;
  {
    Tracer::Scope s(tr, "workload.job");
    job.emplace(workload::pixie3d_job(workload::Pixie3dConfig::small_model(), kJaguarFull));
  }
  core::ShardedAdaptiveSim::Config cfg;
  cfg.n_shards = kShards;
  cfg.n_ranks = kJaguarFull;
  cfg.fs = spec.fs;
  cfg.net = net_config(spec);
  cfg.adaptive.retain_global_index = false;  // streamed merge, one file per OST
  cfg.profiler = tr.on ? &prof : nullptr;    // armed on traced iterations only
  std::optional<core::ShardedAdaptiveSim> sim;
  {
    // Builds the shard group, file system and network in one call.
    Tracer::Scope s(tr, "fs.build");
    sim.emplace(cfg);
  }
  it.setup_s = since(t_setup);

  const auto t_wall = Clock::now();
  std::optional<core::IoResult> result;
  {
    Tracer::Scope s(tr, "sim.run");
    result.emplace(sim->run(*job));
  }
  it.wall_s = since(t_wall);

  it.collectives = 1;
  it.failed = record_failures(
      it, 0, perfbench::check_collective(expect, *result, sim->fs().total_bytes_submitted()));

  it.layers["sim.events"] = static_cast<double>(sim->steps());
  record_net(it, sim->net());
  record_fs(it, sim->fs());
  record_result(it, *result);
  it.layers["core.bytes_per_writer"] = (heap_bytes() - heap0) / static_cast<double>(kJaguarFull);
  it.layers["sim.shard.windows_executed"] = static_cast<double>(sim->shards().windows_executed());
  it.layers["sim.shard.windows_skipped"] = static_cast<double>(sim->shards().windows_skipped());
  it.layers["sim.shard.barrier_rounds"] = static_cast<double>(sim->shards().barrier_rounds());
  if (tr.on) {
    const obs::prof::ShardProfiler::Slot t = prof.totals();
    it.layers["sim.shard.execute_s"] = t.execute_s;
    it.layers["sim.shard.barrier_s"] = t.barrier_s;
    it.layers["sim.shard.merge_s"] = t.merge_s;
    it.layers["sim.shard.skip_s"] = t.skip_s;
    it.layers["sim.shard.imbalance"] = prof.imbalance();
    it.layers["sim.shard.backlog_hw"] = static_cast<double>(t.backlog_hw);
    it.layers["sim.shard.channel_msgs"] = static_cast<double>(t.msgs_posted);
  }
}

/// The Fig. 7 loop: kFig7Pairs x (MPI-IO step, idle, adaptive step, idle) on
/// one loaded machine, then obs::analyze over the loop's journal.
void fig7_loop(Tracer& tr, Iteration& it, std::uint64_t seed, const perfbench::Expect& mpi_expect,
               const perfbench::Expect& ad_expect) {
  const double heap0 = heap_bytes();
  const auto t_setup = Clock::now();
  std::optional<core::IoJob> job;
  {
    Tracer::Scope s(tr, "workload.job");
    job.emplace(workload::pixie3d_job(workload::Pixie3dConfig::large_model(), kFig7Writers));
  }
  std::optional<bench::Machine> machine;
  {
    // File system, network, background load and the env-armed observers.
    Tracer::Scope s(tr, "fs.build");
    // obs_slot 0: every iteration's machine writes the same AIO_* paths.
    machine.emplace(fs::jaguar(), seed, /*with_load=*/true, /*min_ranks=*/kFig7Writers,
                    /*obs_slot=*/0);
  }
  if (!machine->journal || !machine->live || !machine->metrics)
    throw std::runtime_error("fig7_observed needs AIO_JOURNAL, AIO_LIVE and AIO_METRICS set");
  std::optional<core::MpiioTransport> mpi;
  std::optional<core::AdaptiveTransport> adaptive;
  {
    Tracer::Scope s(tr, "core.build");
    core::MpiioTransport::Config mpi_cfg;
    mpi_cfg.stripe_count = 160;
    mpi_cfg.stripe_size = job->bytes_per_writer.front();
    mpi_cfg.max_segments = 4;
    mpi.emplace(machine->filesystem, mpi_cfg);
    core::AdaptiveTransport::Config ad_cfg;
    ad_cfg.n_files = 512;
    adaptive.emplace(machine->filesystem, machine->network, ad_cfg);
  }
  it.setup_s = since(t_setup);

  sim::Engine& engine = machine->engine;
  std::vector<double> io_s;  // per collective, in order
  std::vector<bool> bad;     // per collective: any check violated
  std::vector<double> mpi_t, ad_t;
  double events = 0.0;
  const auto step = [&](core::Transport& t, const perfbench::Expect& expect, const char* name) {
    Tracer::Scope s(tr, name);
    const double submitted0 = machine->filesystem.total_bytes_submitted();
    std::optional<core::IoResult> result;
    {
      Tracer::Scope issue(tr, "core.issue");
      t.run(*job, [&](core::IoResult r) { result = std::move(r); });
    }
    {
      Tracer::Scope run(tr, "sim.run");
      const std::size_t steps0 = engine.steps();
      engine.run();
      events += static_cast<double>(engine.steps() - steps0);
    }
    if (!result) throw std::runtime_error(t.name() + " step did not complete");
    bad.push_back(record_failures(
        it, io_s.size(),
        perfbench::check_collective(
            expect, *result, machine->filesystem.total_bytes_submitted() - submitted0)));
    record_result(it, *result);
    io_s.push_back(result->io_seconds());
    return result->io_seconds();
  };
  const auto idle = [&] {
    Tracer::Scope s(tr, "fs.advance");
    machine->advance(kFig7IdleS);
  };

  const auto t_wall = Clock::now();
  for (std::size_t p = 0; p < kFig7Pairs; ++p) {
    mpi_t.push_back(step(*mpi, mpi_expect, "core.mpiio_step"));
    idle();
    ad_t.push_back(step(*adaptive, ad_expect, "core.adaptive_step"));
    idle();
  }
  std::optional<obs::Json> report;
  {
    Tracer::Scope s(tr, "obs.analyze");
    report.emplace(obs::analyze(*machine->journal));
  }
  it.wall_s = since(t_wall);
  it.collectives = io_s.size();

  // Per-run report checks.  Only the adaptive transport journals runs, so
  // report run k is the loop's k-th adaptive collective (collective 2k+1).
  const obs::Json* runs = report->find("runs");
  const std::size_t n_runs = runs && runs->is_array() ? runs->size() : 0;
  for (std::size_t k = 0; k < ad_t.size(); ++k) {
    const std::size_t c = 2 * k + 1;
    const std::vector<std::string> run_bad =
        k < n_runs ? perfbench::check_report_run(runs->at(k), io_s[c])
                   : std::vector<std::string>{"report has no run for this collective"};
    bad[c] = record_failures(it, c, run_bad) || bad[c];
  }
  // A loop-level violation fails every collective of the loop.
  std::vector<std::string> loop_bad =
      perfbench::check_fig7_loop(stddev(ad_t), stddev(mpi_t), machine->journal->dropped());
  if (n_runs > ad_t.size())
    loop_bad.push_back("report has " + std::to_string(n_runs) + " runs for " +
                       std::to_string(ad_t.size()) + " adaptive collectives");
  for (const std::string& b : loop_bad) it.failures.push_back("loop: " + b);
  it.failed = loop_bad.empty()
                  ? static_cast<std::size_t>(std::count(bad.begin(), bad.end(), true))
                  : it.collectives;

  it.layers["sim.events"] = events;
  record_net(it, machine->network);
  record_fs(it, machine->filesystem);
  it.layers["core.bytes_per_writer"] = (heap_bytes() - heap0) / static_cast<double>(kFig7Writers);
  it.layers["model.adaptive_cov"] = cov(ad_t);
  it.layers["model.mpiio_cov"] = cov(mpi_t);
  if (const obs::Json* sum = report->find("summary"))
    if (const obs::Json* cp = sum->find("critical_path"))
      for (const char* k : {"mds", "internal", "external", "network"})
        if (const obs::Json* v = cp->find(std::string(k) + "_share"))
          it.layers[std::string("model.crit.") + k + "_share"] = v->number();
  it.layers["obs.records"] = static_cast<double>(machine->journal->records().size());
  it.layers["obs.dropped"] = static_cast<double>(machine->journal->dropped());
  it.layers["obs.live_snapshots"] = static_cast<double>(machine->live->rows_written());
  {
    // Journal, live tail and metrics registry out to their AIO_* paths.
    Tracer::Scope s(tr, "obs.write");
    machine->flush_obs();
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(machine->journal->config().path, ec);
  it.layers["obs.journal_bytes"] = ec ? 0.0 : static_cast<double>(bytes);
}

// --- main -------------------------------------------------------------------

/// Span name behind each per-layer time metric (summed per iteration).
const std::pair<const char*, const char*> kSpanMetrics[] = {
    {"sim.run_s", "sim.run"},       {"net.build_s", "net.build"},
    {"fs.build_s", "fs.build"},     {"fs.advance_s", "fs.advance"},
    {"core.issue_s", "core.issue"}, {"workload.job_s", "workload.job"},
    {"obs.write_s", "obs.write"},   {"obs.report_s", "obs.analyze"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload")
      a.workload = v;
    else if (k == "--seed")
      a.seed = std::stoull(v);
    else if (k == "--seconds")
      a.seconds = std::stod(v);
    else if (k == "--trace")
      a.trace = v == "1";
    else if (k == "--trace-out")
      a.trace_out = v;
    else
      throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload != "jaguar65k" && a.workload != "jaguar224k_sharded" &&
      a.workload != "fig7_observed")
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

int run(const Args& args) {
  Tracer tr;

  // Expectations are fixed by the job, so they are computed once, untimed.
  std::vector<perfbench::Expect> expects;
  if (args.workload == "fig7_observed") {
    const core::IoJob job =
        workload::pixie3d_job(workload::Pixie3dConfig::large_model(), kFig7Writers);
    expects = {expect_for(job, false), expect_for(job, true)};
  } else {
    const std::size_t procs = args.workload == "jaguar65k" ? kJaguar65k : kJaguarFull;
    expects = {expect_for(
        workload::pixie3d_job(workload::Pixie3dConfig::small_model(), procs), true)};
  }

  // The classic-engine reference of the sharded run: outside the timed
  // iterations, and only in the traced run (it feeds per-layer metrics).
  std::optional<Iteration> classic_ref;
  obs::Json reference;  // stays null without a reference run
  if (args.trace && args.workload == "jaguar224k_sharded") {
    classic_ref.emplace();
    classic_collective(tr, *classic_ref, kJaguarFull, expects[0]);
    if (classic_ref->failed != 0)
      throw std::runtime_error("classic reference run failed its checks");
    reference = obs::Json::object();
    reference.set("engine", "classic");
    reference.set("wall_s", classic_ref->wall_s);
    reference.set("setup_s", classic_ref->setup_s);
    reference.set("sim_s", classic_ref->layers.at("model.sim_s"));
    reference.set("events", classic_ref->layers.at("sim.events"));
  }

  std::vector<Iteration> iters;
  const auto t_run = Clock::now();
  while (iters.size() < kMinIterations || since(t_run) < args.seconds) {
    Iteration it;
    it.probe_s = probe_host_clock();
    it.scale = kProbeRefS / it.probe_s;
    // In the traced run every other iteration stays untraced, so the run
    // measures its own tracing overhead.
    tr.on = args.trace && iters.size() % 2 == 0;
    it.traced = tr.on;
    {
      Tracer::Scope root(tr, "bench.iteration");
      it.span = tr.on ? static_cast<int>(tr.spans().size()) - 1 : -1;
      if (args.workload == "jaguar65k")
        classic_collective(tr, it, kJaguar65k, expects[0]);
      else if (args.workload == "jaguar224k_sharded")
        sharded_collective(tr, it, expects[0]);
      else
        fig7_loop(tr, it, args.seed, expects[0], expects[1]);
    }
    iters.push_back(std::move(it));
  }
  tr.on = false;

  obs::Json out = obs::Json::object();
  obs::Json setup = obs::Json::array(), wall = obs::Json::array(), failures = obs::Json::array();
  obs::Json raw_setup = obs::Json::array(), raw_wall = obs::Json::array();
  obs::Json probe = obs::Json::array();
  std::size_t attempted = 0, failed = 0;
  std::vector<double> wall_traced, wall_untraced;
  for (const Iteration& it : iters) {
    setup.push(it.setup_s * it.scale);
    wall.push(it.wall_s * it.scale);
    raw_setup.push(it.setup_s);
    raw_wall.push(it.wall_s);
    probe.push(it.probe_s);
    attempted += it.collectives;
    failed += it.failed;
    for (const std::string& f : it.failures) failures.push(f);
    (it.traced ? wall_traced : wall_untraced).push_back(it.wall_s * it.scale);
  }
  out.set("workload", args.workload);
  out.set("seed", static_cast<double>(args.seed));
  out.set("traced", args.trace);
  out.set("iterations", static_cast<double>(iters.size()));
  out.set("attempted", static_cast<double>(attempted));
  out.set("failed", static_cast<double>(failed));
  out.set("failures", std::move(failures));
  out.set("setup_s", std::move(setup));
  out.set("wall_s", std::move(wall));
  out.set("raw_setup_s", std::move(raw_setup));
  out.set("raw_wall_s", std::move(raw_wall));
  out.set("probe_s", std::move(probe));
  out.set("probe_ref_s", kProbeRefS);
  out.set("peak_rss_mb", peak_rss_mb());
  out.set("run_s", since(t_run));
  out.set("reference", std::move(reference));

  if (args.trace) {
    // Per-layer metrics: counters from the last traced iteration (they
    // repeat exactly for a fixed seed), times as medians over the traced
    // iterations of each span's per-iteration total, in reference-clock
    // seconds like the end-to-end times.
    // run.py reports every per-layer metric of BENCHMARK.json, as 0 where
    // a layer does not run on the workload, and rejects any other name.
    std::map<std::string, double> layers;
    const Iteration* last = nullptr;
    for (const Iteration& it : iters)
      if (it.traced) last = &it;
    for (const auto& [k, v] : last->layers) layers[k] = v;
    for (const auto& [metric, span] : kSpanMetrics) {
      std::vector<double> per_iter;
      for (const Iteration& it : iters)
        if (it.traced) {
          const std::vector<double> d = tr.durations(it.span, span);
          per_iter.push_back(std::accumulate(d.begin(), d.end(), 0.0) * it.scale);
        }
      layers[metric] = median(per_iter);
    }
    for (const char* k : {"sim.shard.execute_s", "sim.shard.barrier_s", "sim.shard.merge_s",
                          "sim.shard.skip_s", "sim.shard.imbalance"}) {
      const bool host_time = std::strcmp(k, "sim.shard.imbalance") != 0;
      std::vector<double> per_iter;
      for (const Iteration& it : iters)
        if (it.traced && it.layers.count(k))
          per_iter.push_back(it.layers.at(k) * (host_time ? it.scale : 1.0));
      layers[k] = median(per_iter);
    }
    for (const auto& [metric, span] : {std::pair{"core.adaptive_step_ms", "core.adaptive_step"},
                                       std::pair{"core.mpiio_step_ms", "core.mpiio_step"}}) {
      std::vector<double> steps;
      for (const Iteration& it : iters)
        if (it.traced)
          for (const double d : tr.durations(it.span, span)) steps.push_back(1e3 * d * it.scale);
      layers[metric] = median(steps);
    }
    if (layers["sim.events"] > 0.0)
      layers["sim.ns_per_event"] = 1e9 * layers["sim.run_s"] / layers["sim.events"];
    if (classic_ref) {
      const double classic_sim_s = classic_ref->layers.at("model.sim_s");
      layers["sim.shard.event_inflation"] =
          layers["sim.events"] / classic_ref->layers.at("sim.events");
      layers["model.gap_pct"] =
          100.0 * std::abs(layers["model.sim_s"] - classic_sim_s) / classic_sim_s;
    }
    layers["trace.overhead_s"] = median(wall_traced) - median(wall_untraced);
    obs::Json lj = obs::Json::object();
    for (const auto& [k, v] : layers) lj.set(k, v);
    out.set("layers", std::move(lj));
    out.set("spans", static_cast<double>(tr.spans().size()));
    if (!args.trace_out.empty()) {
      std::ofstream f(args.trace_out);
      f << tr.chrome().dump() << '\n';
      if (!f) throw std::runtime_error("cannot write trace to " + args.trace_out);
    }
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::strcmp(argv[1], "--build-info") == 0) {
      obs::Json info = obs::Json::object();
      info.set("compiler", AIO_PB_COMPILER);
      info.set("flags", AIO_PB_FLAGS);
      info.set("build_type", AIO_PB_BUILD_TYPE);
      std::printf("%s\n", info.dump().c_str());
      return 0;
    }
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aio_perfbench: %s\n", e.what());
    return 2;
  }
}
