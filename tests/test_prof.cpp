// Shard-runtime profiler (obs/prof.hpp): slot arithmetic and the aio-prof-v1
// document, the armed-run invariants on a real sharded sweep — simulated
// results bit-identical to the unarmed run, kProfShard journal records
// appended at the final simulated time — the LivePlane `prof` snapshot
// block, and the strict AIO_PROF / AIO_PROF_PERIOD_S env parsers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/transports/sharded.hpp"
#include "env.hpp"
#include "obs/journal.hpp"
#include "obs/live.hpp"
#include "obs/prof.hpp"

namespace {

using namespace aio;
using core::IoJob;
using core::IoResult;
using core::ShardedAdaptiveSim;

double num_at(const obs::Json& doc, std::initializer_list<const char*> path) {
  const obs::Json* node = &doc;
  for (const char* key : path) {
    node = node->find(key);
    if (!node) return -1.0;
  }
  return node->number();
}

// --- slot arithmetic and the document ----------------------------------------

TEST(ShardProfiler, BindZeroesAndTotalsAggregate) {
  obs::prof::ShardProfiler prof;
  EXPECT_EQ(prof.n_shards(), 0u);
  EXPECT_DOUBLE_EQ(prof.imbalance(), 1.0);  // degenerate: nothing bound

  prof.bind(3);
  ASSERT_EQ(prof.n_shards(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(prof.slot(s).execute_s, 0.0);
    EXPECT_EQ(prof.slot(s).rounds, 0u);
  }
  EXPECT_DOUBLE_EQ(prof.imbalance(), 1.0);  // bound but idle

  for (std::size_t s = 0; s < 3; ++s) {
    obs::prof::ShardProfiler::Slot& slot = prof.slot(s);
    slot.execute_s = 1.0 + static_cast<double>(s);  // 1, 2, 3
    slot.barrier_s = 0.5;
    slot.merge_s = 0.25;
    slot.skip_s = 0.125;
    slot.rounds = 10 + s;
    slot.events = 100;
    slot.msgs_posted = 7;
    slot.msgs_drained = 7;
    slot.backlog_hw = 2 * s;
  }
  const obs::prof::ShardProfiler::Slot t = prof.totals();
  EXPECT_DOUBLE_EQ(t.execute_s, 6.0);
  EXPECT_DOUBLE_EQ(t.barrier_s, 1.5);
  EXPECT_DOUBLE_EQ(t.merge_s, 0.75);
  EXPECT_DOUBLE_EQ(t.skip_s, 0.375);
  EXPECT_EQ(t.rounds, 12u);  // max, not sum: rounds are lockstep
  EXPECT_EQ(t.events, 300u);
  EXPECT_EQ(t.msgs_posted, 21u);
  EXPECT_EQ(t.msgs_drained, 21u);
  EXPECT_EQ(t.backlog_hw, 4u);  // max
  EXPECT_DOUBLE_EQ(prof.imbalance(), 3.0 / 2.0);

  // Re-bind resets everything, including the window context.
  prof.note_windows(5e-4, 200, 50, 40);
  prof.bind(2);
  EXPECT_EQ(prof.totals().events, 0u);
  EXPECT_EQ(prof.windows_executed(), 0u);
  EXPECT_DOUBLE_EQ(prof.window_s(), 0.0);
}

TEST(ShardProfiler, JsonDocumentCarriesSlotsTotalsAndWindowContext) {
  obs::prof::ShardProfiler prof;
  prof.bind(2);
  prof.slot(0).execute_s = 0.5;
  prof.slot(0).rounds = 4;
  prof.slot(1).execute_s = 1.5;
  prof.slot(1).rounds = 4;
  prof.slot(1).backlog_hw = 9;
  prof.note_windows(512e-6, 300, 100, 400);

  const obs::Json doc = prof.to_json();
  EXPECT_EQ(doc.find("schema")->str(), "aio-prof-v1");
  EXPECT_DOUBLE_EQ(num_at(doc, {"n_shards"}), 2.0);
  EXPECT_DOUBLE_EQ(num_at(doc, {"window_s"}), 512e-6);
  EXPECT_DOUBLE_EQ(num_at(doc, {"windows_executed"}), 300.0);
  EXPECT_DOUBLE_EQ(num_at(doc, {"windows_skipped"}), 100.0);
  EXPECT_DOUBLE_EQ(num_at(doc, {"barrier_rounds"}), 400.0);
  ASSERT_EQ(doc.find("shards")->size(), 2u);
  EXPECT_DOUBLE_EQ(num_at(doc.find("shards")->at(1), {"execute_s"}), 1.5);
  EXPECT_DOUBLE_EQ(num_at(doc, {"totals", "execute_s"}), 2.0);
  EXPECT_DOUBLE_EQ(num_at(doc, {"totals", "backlog_hw"}), 9.0);
  EXPECT_DOUBLE_EQ(num_at(doc, {"imbalance"}), 1.5);
  // Round-trips through the parser.
  EXPECT_TRUE(obs::Json::parse(doc.dump()).has_value());
}

// --- armed runs on the real sharded rig --------------------------------------

constexpr std::size_t kWriters = 96;
constexpr std::size_t kOsts = 8;

IoJob seeded_job(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(0.5, 2.0);
  IoJob job;
  job.bytes_per_writer.resize(kWriters);
  for (std::size_t i = 0; i < kWriters; ++i) {
    double b = 256.0 * 1024.0 * jitter(rng);
    if (i % 19 == 0) b *= 4.0;
    job.bytes_per_writer[i] = b;
  }
  return job;
}

ShardedAdaptiveSim::Config rig_config(std::size_t n_shards) {
  ShardedAdaptiveSim::Config c;
  c.n_shards = n_shards;
  c.n_ranks = kWriters;
  c.fs.n_osts = kOsts;
  c.fs.ost.disk_bw = 200e6;
  c.fs.ost.cache_bytes = 8e6;
  c.fs.ost.ingest_bw = 500e6;
  c.fs.ost.alpha = 0.05;
  c.fs.ost.op_latency_s = 0.0005;
  c.fs.fabric_bw = 3e9;
  c.net.latency_s = 8e-6;
  c.net.nic_bw = 2e9;
  c.net.cores_per_node = 4;
  c.adaptive.n_files = 0;
  c.collect_journal = true;
  return c;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t digest_without_prof(const std::vector<obs::Record>& records,
                                  std::size_t* n_prof = nullptr) {
  std::uint64_t h = 14695981039346656037ull;
  std::size_t prof = 0;
  for (const obs::Record& r : records) {
    if (r.kind == obs::Rec::kProfShard) {
      ++prof;
      continue;
    }
    h = fnv1a(&r, sizeof(r), h);
  }
  if (n_prof) *n_prof = prof;
  return h;
}

TEST(ShardProfilerRun, ArmedRunIsBitIdenticalModuloProfRecords) {
  const IoJob job = seeded_job(5);
  const std::size_t n_shards = 4;

  ShardedAdaptiveSim off(rig_config(n_shards));
  const IoResult base = off.run(job);
  std::size_t base_prof = 0;
  const std::uint64_t base_digest = digest_without_prof(off.merged_records(), &base_prof);
  EXPECT_EQ(base_prof, 0u) << "unarmed run emitted kProfShard records";

  obs::prof::ShardProfiler prof;
  auto cfg = rig_config(n_shards);
  cfg.profiler = &prof;
  ShardedAdaptiveSim on(std::move(cfg));
  const IoResult armed = on.run(job);

  // The profiler only reads the host clock: every simulated quantity must be
  // exactly the unarmed run's (EXPECT_EQ on doubles is bit-comparison here).
  EXPECT_EQ(base.t_begin, armed.t_begin);
  EXPECT_EQ(base.t_open_done, armed.t_open_done);
  EXPECT_EQ(base.t_data_done, armed.t_data_done);
  EXPECT_EQ(base.t_complete, armed.t_complete);
  EXPECT_EQ(base.steals, armed.steals);
  EXPECT_EQ(base.grants_issued, armed.grants_issued);

  // ... and the journal differs only by the appended kProfShard records: one
  // per shard, stamped at the run's final simulated time.
  const std::vector<obs::Record> merged = on.merged_records();
  std::size_t armed_prof = 0;
  EXPECT_EQ(digest_without_prof(merged, &armed_prof), base_digest);
  EXPECT_EQ(armed_prof, on.shards().n_shards());
  std::vector<bool> seen(on.shards().n_shards(), false);
  for (const obs::Record& r : merged) {
    if (r.kind != obs::Rec::kProfShard) continue;
    EXPECT_EQ(r.t, armed.t_complete);
    EXPECT_EQ(static_cast<std::size_t>(r.a), on.shards().n_shards());
    ASSERT_LT(r.id, seen.size());
    EXPECT_FALSE(seen[r.id]) << "duplicate prof record for shard " << r.id;
    seen[r.id] = true;
    // The record mirrors the slot it was cut from.
    const obs::prof::ShardProfiler::Slot& s = prof.slot(r.id);
    EXPECT_DOUBLE_EQ(r.v0, s.execute_s);
    EXPECT_DOUBLE_EQ(r.v1, s.barrier_s);
    EXPECT_DOUBLE_EQ(r.v2, s.merge_s);
    EXPECT_EQ(r.u0, s.events);
    EXPECT_EQ(r.u1, s.msgs_posted);
    EXPECT_EQ(r.u2, s.msgs_drained);
  }

  // Slot invariants on a completed run: every shard turned rounds and
  // dispatched events, the lockstep rounds agree, the cross-shard channel
  // plane conserved messages, and the window context was recorded.
  const obs::prof::ShardProfiler::Slot t = prof.totals();
  EXPECT_GT(t.rounds, 0u);
  EXPECT_GT(t.events, 0u);
  for (std::size_t s = 0; s < prof.n_shards(); ++s) {
    EXPECT_EQ(prof.slot(s).rounds, t.rounds) << "shard " << s << " missed barrier rounds";
    EXPECT_GT(prof.slot(s).events, 0u) << "shard " << s;
  }
  EXPECT_EQ(t.msgs_posted, t.msgs_drained) << "channel plane leaked messages";
  EXPECT_GT(t.msgs_posted, 0u) << "4-shard run crossed no shard boundaries";
  EXPECT_GE(t.backlog_hw, 1u);
  EXPECT_GE(prof.imbalance(), 1.0);
  EXPECT_GT(prof.window_s(), 0.0);
  EXPECT_EQ(prof.barrier_rounds(), t.rounds);
  EXPECT_GT(prof.windows_executed(), 0u);
}

TEST(ShardProfilerRun, WriteEmitsParsableDocument) {
  obs::prof::ShardProfiler::Config pc;
  pc.path = testing::TempDir() + "aio_prof_test.json";
  obs::prof::ShardProfiler prof(pc);
  auto cfg = rig_config(2);
  cfg.profiler = &prof;
  ShardedAdaptiveSim sim(std::move(cfg));
  (void)sim.run(seeded_job(3));
  ASSERT_TRUE(prof.write());

  std::FILE* f = std::fopen(pc.path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text;
  char buf[4096];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) text.append(buf, n);
  std::fclose(f);
  std::remove(pc.path.c_str());

  const auto doc = obs::Json::parse(text);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->str(), "aio-prof-v1");
  EXPECT_DOUBLE_EQ(num_at(*doc, {"n_shards"}), 2.0);
  EXPECT_GT(num_at(*doc, {"totals", "events"}), 0.0);
}

// --- the live-plane snapshot block -------------------------------------------

TEST(ShardProfilerLive, SnapshotGrowsProfBlockOnlyWhenAttached) {
  obs::LivePlane plane({});
  const obs::Json bare = plane.snapshot_json(0.0);
  EXPECT_EQ(bare.find("prof"), nullptr);

  obs::prof::ShardProfiler prof;
  prof.bind(2);
  prof.slot(0).execute_s = 0.25;
  prof.slot(0).rounds = 3;
  prof.slot(1).execute_s = 0.75;
  prof.slot(1).rounds = 3;
  prof.slot(1).msgs_posted = 5;
  prof.slot(1).msgs_drained = 5;
  plane.set_profiler(&prof);
  ASSERT_EQ(plane.profiler(), &prof);

  const obs::Json row = plane.snapshot_json(1.0);
  ASSERT_NE(row.find("prof"), nullptr);
  EXPECT_DOUBLE_EQ(num_at(row, {"prof", "n_shards"}), 2.0);
  EXPECT_DOUBLE_EQ(num_at(row, {"prof", "rounds"}), 3.0);
  EXPECT_DOUBLE_EQ(num_at(row, {"prof", "execute_s"}), 1.0);
  EXPECT_DOUBLE_EQ(num_at(row, {"prof", "msgs_posted"}), 5.0);
  EXPECT_DOUBLE_EQ(num_at(row, {"prof", "imbalance"}), 1.5);

  // An attached-but-unbound profiler stays invisible (no empty blocks).
  obs::prof::ShardProfiler idle;
  plane.set_profiler(&idle);
  EXPECT_EQ(plane.snapshot_json(2.0).find("prof"), nullptr);
}

// --- AIO_PROF / AIO_PROF_PERIOD_S parsing ------------------------------------

struct EnvSaver {
  explicit EnvSaver(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
  }
  ~EnvSaver() {
    if (saved_.has_value())
      ::setenv(name_, saved_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  const char* name_;
  std::optional<std::string> saved_;
};

// All assertions about the bench parsers' malformed-value warnings
// (AIO_PROF, AIO_PROF_PERIOD_S, AIO_MDS_BATCH, AIO_SIM_WINDOW_BATCH) live in
// this one TEST: the parsers warn once per process, so call order matters
// and a second test would observe silence.
TEST(ProfEnv, ParsesStrictlyAndWarnsOnceOnMalformedValues) {
  EnvSaver save_prof("AIO_PROF");
  EnvSaver save_period("AIO_PROF_PERIOD_S");
  EnvSaver save_batch("AIO_MDS_BATCH");
  EnvSaver save_window("AIO_SIM_WINDOW_BATCH");

  // Unset and "0": off.
  ::unsetenv("AIO_PROF");
  ::unsetenv("AIO_PROF_PERIOD_S");
  EXPECT_FALSE(bench::prof_env().enabled);
  ::setenv("AIO_PROF", "0", 1);
  EXPECT_FALSE(bench::prof_env().enabled);

  // "1" and "-": armed, stderr summary only (no path).
  for (const char* v : {"1", "-"}) {
    ::setenv("AIO_PROF", v, 1);
    const bench::ProfEnv pe = bench::prof_env();
    EXPECT_TRUE(pe.enabled) << v;
    EXPECT_TRUE(pe.path.empty()) << v;
    EXPECT_DOUBLE_EQ(pe.period_s, 0.0) << v;
  }

  // A path: armed with that destination.
  ::setenv("AIO_PROF", "/tmp/prof.json", 1);
  {
    const bench::ProfEnv pe = bench::prof_env();
    EXPECT_TRUE(pe.enabled);
    EXPECT_EQ(pe.path, "/tmp/prof.json");
  }

  // A valid period rides along.
  ::setenv("AIO_PROF_PERIOD_S", "0.5", 1);
  EXPECT_DOUBLE_EQ(bench::prof_env().period_s, 0.5);

  // Digit-only non-toggle values are mistyped toggles, not paths: rejected
  // with one stderr line, profiler off.
  ::setenv("AIO_PROF", "2", 1);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(bench::prof_env().enabled);
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("ignoring AIO_PROF=\"2\""), std::string::npos) << err;
  EXPECT_NE(err.find("want 0, 1, -, or a file path"), std::string::npos) << err;

  // Warn-once: the second malformed value is rejected silently.
  ::setenv("AIO_PROF", "07", 1);
  testing::internal::CaptureStderr();
  EXPECT_FALSE(bench::prof_env().enabled);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  // Malformed periods: rejected with one stderr line, period 0, profiler
  // still armed.
  ::setenv("AIO_PROF", "1", 1);
  ::setenv("AIO_PROF_PERIOD_S", "fast", 1);
  testing::internal::CaptureStderr();
  {
    const bench::ProfEnv pe = bench::prof_env();
    EXPECT_TRUE(pe.enabled);
    EXPECT_DOUBLE_EQ(pe.period_s, 0.0);
  }
  err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("ignoring AIO_PROF_PERIOD_S=\"fast\""), std::string::npos) << err;
  EXPECT_NE(err.find("want a positive number of seconds"), std::string::npos) << err;

  // Non-positive periods count as malformed too — and warn-once again.
  ::setenv("AIO_PROF_PERIOD_S", "-1", 1);
  testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(bench::prof_env().period_s, 0.0);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  // AIO_MDS_BATCH: positive integers only, default 64; 0 is malformed.
  ::unsetenv("AIO_MDS_BATCH");
  EXPECT_EQ(bench::mds_batch(), 64u);
  ::setenv("AIO_MDS_BATCH", "32", 1);
  EXPECT_EQ(bench::mds_batch(), 32u);
  ::setenv("AIO_MDS_BATCH", "0", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(bench::mds_batch(), 64u);
  err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("ignoring AIO_MDS_BATCH=\"0\""), std::string::npos) << err;
  EXPECT_NE(err.find("want a positive integer"), std::string::npos) << err;
  ::setenv("AIO_MDS_BATCH", "-4", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(bench::mds_batch(), 64u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  // AIO_SIM_WINDOW_BATCH: a number in [1, kMaxWindowBatch], default 64.
  // Huge windows would stall simulated time, so they fall back with a
  // warning instead of reaching the shard group.
  ::unsetenv("AIO_SIM_WINDOW_BATCH");
  EXPECT_DOUBLE_EQ(bench::window_batch(), 64.0);
  ::setenv("AIO_SIM_WINDOW_BATCH", "2.5", 1);
  EXPECT_DOUBLE_EQ(bench::window_batch(), 2.5);
  ::setenv("AIO_SIM_WINDOW_BATCH", "inf", 1);
  testing::internal::CaptureStderr();
  EXPECT_DOUBLE_EQ(bench::window_batch(), 64.0);
  err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("ignoring AIO_SIM_WINDOW_BATCH=\"inf\""), std::string::npos) << err;
  EXPECT_NE(err.find("want a number in [1, 1e6]"), std::string::npos) << err;
  for (const char* bad : {"1e12", "auto", "0.5"}) {
    ::setenv("AIO_SIM_WINDOW_BATCH", bad, 1);
    testing::internal::CaptureStderr();
    EXPECT_DOUBLE_EQ(bench::window_batch(), 64.0) << bad;
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "") << bad;
  }
}

}  // namespace
