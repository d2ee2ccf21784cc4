// Tests for the online telemetry plane (obs/live.hpp): sliding-window
// roll-over, straggler-score behavior under a loaded OST, the top-k
// straggler ranking against a full sort of the fleet, bitwise-stable
// snapshots, exact agreement between the live cumulative attribution and the
// offline analyzer, the flight recorder, and AIO_LIVE/AIO_FLIGHT env
// parsing.  Steady-state allocation freedom is held by tests/test_alloc_guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/transports/adaptive_transport.hpp"
#include "fs/filesystem.hpp"
#include "fs/ost.hpp"
#include "net/network.hpp"
#include "obs/analysis.hpp"
#include "obs/journal.hpp"
#include "obs/live.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aio;

double num_at(const obs::Json& doc, std::initializer_list<const char*> path) {
  const obs::Json* node = &doc;
  for (const char* key : path) {
    node = node->find(key);
    if (!node) return -1.0;
  }
  return node->number();
}

/// The golden 2-OST scenario from tests/test_analysis.cpp, with a live plane
/// riding alongside the journal: target 1 carries heavy external load, eight
/// writers in two groups, real (Storm) MDS opens.
struct LiveRig {
  obs::Journal journal{{/*path=*/"", /*max_records=*/1u << 20}};
  obs::LivePlane live;
  obs::Recorder recorder{&journal, &live};
  sim::Engine engine{&recorder};
  fs::FileSystem filesystem;
  net::Network network;
  core::AdaptiveTransport transport;

  static fs::FsConfig fs_config() {
    fs::FsConfig fc;
    fc.n_osts = 2;
    fc.fabric_bw = 0.0;
    fc.stripe_limit = 2;
    fc.default_stripe_size = 1e6;
    fc.ost.ingest_bw = 100e6;
    fc.ost.disk_bw = 10e6;
    fc.ost.cache_bytes = 50e6;
    fc.ost.per_stream_cap = 0.0;
    fc.ost.alpha = 0.0;
    fc.ost.eff_floor = 0.0;
    fc.mds.open_base_s = 1e-4;
    fc.mds.close_base_s = 1e-4;
    return fc;
  }

  explicit LiveRig(obs::LivePlane::Config lc = {})
      : live(std::move(lc)),
        filesystem(engine, fs_config()),
        network(engine, net::NetConfig{1e-6, 10e9, 8}, 64),
        transport(filesystem, network,
                  [] {
                    core::AdaptiveTransport::Config ac;
                    ac.n_files = 2;
                    ac.open_mode = core::AdaptiveTransport::Config::OpenMode::Storm;
                    return ac;
                  }()) {
    filesystem.ost(1).set_load(0.8, 0.8);
  }

  core::IoResult run() {
    std::optional<core::IoResult> result;
    transport.run(core::IoJob::uniform(8, 8e6),
                  [&](core::IoResult r) { result = std::move(r); });
    engine.run();
    EXPECT_TRUE(result.has_value());
    return *result;
  }
};

obs::Record rec(obs::Rec kind, double t) {
  obs::Record r;
  r.kind = kind;
  r.t = t;
  return r;
}

// --- exact agreement with the offline analyzer -------------------------------

TEST(Live, CumulativeMatchesOfflineAnalyzer) {
  LiveRig rig;
  // Three runs under different external load — the journal and the plane see
  // the identical record stream and drive the same fold, so once the plane
  // is flushed its cumulative partition equals the offline analyzer's
  // attribution exactly.
  for (const double load : {0.8, 0.2, 0.5}) {
    rig.filesystem.ost(1).set_load(load, load);
    (void)rig.run();
  }
  EXPECT_EQ(rig.live.runs_completed(), 3u);
  rig.live.flush();

  const obs::Json report = obs::analyze(rig.journal);
  const obs::WaitSplit cum = rig.live.cumulative();
  EXPECT_EQ(cum.total_s, num_at(report, {"summary", "attribution", "total_wait_s"}));
  EXPECT_EQ(cum.internal_s, num_at(report, {"summary", "attribution", "internal_s"}));
  EXPECT_EQ(cum.external_s, num_at(report, {"summary", "attribution", "external_s"}));
  EXPECT_EQ(cum.mds_s, num_at(report, {"summary", "attribution", "mds_s"}));
  EXPECT_EQ(cum.network_s, num_at(report, {"summary", "attribution", "network_s"}));
  EXPECT_EQ(static_cast<double>(cum.writers), num_at(report, {"summary", "writers"}));
  EXPECT_GT(cum.external_s, 0.0);
  EXPECT_GT(cum.mds_s, 0.0);

  // Steal provenance counts agree too (the priced estimates differ by design:
  // online EWMA vs end-of-run mean).
  EXPECT_EQ(static_cast<double>(rig.live.steals().completed),
            num_at(report, {"summary", "steal_savings", "completed"}));

  // Run-level timing: the analyzer's run count matches and the live CoV is
  // populated (three runs at three different loads vary).
  const obs::LiveRunStats rt = rig.live.run_stats();
  EXPECT_EQ(rt.count, 3u);
  EXPECT_GT(rt.cov, 0.0);
  EXPECT_GE(rt.p99_s, rt.mean_s * 0.5);
}

// --- sliding window ----------------------------------------------------------

TEST(Live, WindowRollsOver) {
  obs::LivePlane::Config lc;
  lc.flight_records = 0;
  obs::LivePlane plane(lc);

  // One run, one file on ost0, two writers completing in different slots.
  obs::Record begin = rec(obs::Rec::kRunBegin, 0.0);
  begin.u0 = 2;  // writers
  begin.u1 = 1;  // files
  begin.u2 = 1;  // osts
  plane.ingest(begin);
  obs::Record map = rec(obs::Rec::kFileMap, 0.0);
  map.u0 = 0;
  map.u1 = 0;
  plane.ingest(map);
  obs::Record open = rec(obs::Rec::kRunMark, 0.1);
  open.a = static_cast<std::uint8_t>(obs::Mark::kOpenDone);
  plane.ingest(open);

  const auto writer = [&](std::uint32_t id, double signal, double start, double end) {
    obs::Record s = rec(obs::Rec::kWriterSignal, signal);
    s.id = id;
    plane.ingest(s);  // target file 0, origin group 0
    obs::Record st = rec(obs::Rec::kWriterStart, start);
    st.id = id;
    plane.ingest(st);
    obs::Record e = rec(obs::Rec::kWriterEnd, end);
    e.id = id;
    plane.ingest(e);
  };
  writer(0, 0.2, 0.5, 1.0);
  writer(1, 0.3, 0.7, 2.0);

  obs::WaitSplit w = plane.window();
  EXPECT_EQ(w.writers, 2u);
  EXPECT_NEAR(w.total_s, 0.5 + 0.7, 1e-12);  // start_t - t_begin each
  EXPECT_NEAR(plane.cumulative().total_s, w.total_s, 1e-12);
  // The partition is exhaustive: components sum to the total.
  EXPECT_NEAR(w.mds_s + w.internal_s + w.external_s + w.network_s, w.total_s, 1e-12);

  // A completion more than kWindowSlots slots (of kWindowSlotS = 1 s) later
  // evicts everything old: the window forgets, the cumulative totals do not.
  static_assert(2.0 + obs::LivePlane::kWindowSlots * obs::LivePlane::kWindowSlotS < 30.0);
  obs::Record begin2 = rec(obs::Rec::kRunBegin, 30.0);
  begin2.u0 = 1;
  begin2.u1 = 1;
  begin2.u2 = 1;
  plane.ingest(begin2);
  obs::Record open2 = rec(obs::Rec::kRunMark, 30.0);
  open2.a = static_cast<std::uint8_t>(obs::Mark::kOpenDone);
  plane.ingest(open2);
  writer(0, 30.1, 30.2, 31.0);

  w = plane.window();
  EXPECT_EQ(w.writers, 1u);
  EXPECT_NEAR(w.total_s, 0.2, 1e-12);  // 30.2 - 30.0, the new run's wait only
  EXPECT_EQ(plane.cumulative().writers, 3u);
  EXPECT_NEAR(plane.cumulative().total_s, 0.5 + 0.7 + 0.2, 1e-12);
}

// --- straggler scoring -------------------------------------------------------

TEST(Live, StragglerScoreMonotoneUnderLoad) {
  obs::LivePlane::Config lc;
  lc.flight_records = 0;
  obs::LivePlane plane(lc);

  const auto ost_state = [&](std::uint32_t ost, double load, double t) {
    obs::Record r = rec(obs::Rec::kOstState, t);
    r.id = ost;
    r.v1 = load;  // net_load
    r.v2 = load;  // disk_load
    plane.ingest(r);
  };
  // ost1 carries heavy external load, ost0 light.
  for (int i = 1; i <= 5; ++i) {
    ost_state(0, 0.2, static_cast<double>(i));
    ost_state(1, 0.9, static_cast<double>(i));
  }
  const double light = plane.straggler_score(0);
  const double heavy = plane.straggler_score(1);
  EXPECT_GT(light, 0.0);
  EXPECT_GT(heavy, light);

  // Monotonicity: loading ost0 harder can only raise its score.
  double prev = light;
  for (int i = 6; i <= 10; ++i) {
    ost_state(0, 0.2 + 0.15 * static_cast<double>(i - 5), static_cast<double>(i));
    const double cur = plane.straggler_score(0);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
  EXPECT_GT(prev, light);

  // Unknown OSTs score zero (healthy).
  EXPECT_EQ(plane.straggler_score(77), 0.0);

  // End-to-end: after a simulated run with ost1 loaded, the plane ranks it
  // the fleet's worst straggler.
  LiveRig rig;
  (void)rig.run();
  EXPECT_GT(rig.live.straggler_score(1), rig.live.straggler_score(0));
  const obs::LiveView view = rig.live.view();
  ASSERT_GE(view.stragglers.size(), 2u);
  EXPECT_EQ(view.stragglers.front().ost, 1u);
}

TEST(Live, TopKRankingMatchesFullSortWithTies) {
  obs::LivePlane::Config lc;
  lc.flight_records = 0;
  obs::LivePlane plane(lc);
  constexpr std::uint32_t kOsts = 24;

  obs::Record begin = rec(obs::Rec::kRunBegin, 0.0);
  begin.u0 = 6;  // writers
  begin.u1 = kOsts;  // files
  begin.u2 = kOsts;
  plane.ingest(begin);
  for (std::uint32_t f = 0; f < kOsts; ++f) {  // file f lives on OST f
    obs::Record m = rec(obs::Rec::kFileMap, 0.0);
    m.u0 = f;
    m.u1 = f;
    plane.ingest(m);
  }
  // Exact load ties: three OSTs at 0.75 and six at 0.5, the rest unloaded
  // or never reported.
  const auto ost_state = [&](std::uint32_t ost, double load, std::uint32_t m_dirty) {
    obs::Record r = rec(obs::Rec::kOstState, 1.0);
    r.id = ost;
    r.u0 = m_dirty;
    r.v1 = load;
    r.v2 = load;
    plane.ingest(r);
  };
  for (const std::uint32_t o : {3u, 9u, 15u}) ost_state(o, 0.75, o % 4);
  for (const std::uint32_t o : {0u, 6u, 12u, 18u, 21u, 23u}) ost_state(o, 0.5, o % 3);
  for (const std::uint32_t o : {2u, 5u, 10u}) ost_state(o, 0.0, 1);
  // Two slow writers (3 s) on OSTs 1 and 4 and four 1 s writers elsewhere:
  // the fleet mean is 10/6 s, so OSTs 1 and 4 tie on service excess 0.8 and
  // the others add nothing.
  const std::pair<std::uint32_t, double> writes[] = {{1, 3.0}, {4, 3.0}, {2, 1.0},
                                                     {5, 1.0}, {7, 1.0}, {8, 1.0}};
  for (std::uint32_t w = 0; w < 6; ++w) {
    obs::Record s = rec(obs::Rec::kWriterStart, 2.0);
    s.id = w;
    s.u0 = writes[w].first;
    plane.ingest(s);
    obs::Record e = rec(obs::Rec::kWriterEnd, 2.0 + writes[w].second);
    e.id = w;
    e.u0 = writes[w].first;
    plane.ingest(e);
  }
  ASSERT_EQ(plane.n_osts_seen(), kOsts);

  std::vector<obs::LiveOst> ref;
  for (std::uint32_t i = 0; i < kOsts; ++i) ref.push_back(plane.ost_view(i));
  std::sort(ref.begin(), ref.end(), [](const obs::LiveOst& a, const obs::LiveOst& b) {
    return a.score != b.score ? a.score > b.score : a.ost < b.ost;
  });
  // The cut at k = 8 falls inside the 0.5 tie: 21 and 23 lose on id.
  const std::vector<std::uint32_t> top8 = {1, 4, 3, 9, 15, 0, 6, 12};
  for (std::size_t i = 0; i < top8.size(); ++i) EXPECT_EQ(ref[i].ost, top8[i]) << i;

  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                              std::size_t{kOsts}, std::size_t{kOsts + 3}}) {
    const obs::LiveView v = plane.view(k);
    ASSERT_EQ(v.stragglers.size(), std::min<std::size_t>(k, kOsts)) << "k=" << k;
    for (std::size_t i = 0; i < v.stragglers.size(); ++i) {
      const obs::LiveOst& got = v.stragglers[i];
      const obs::LiveOst& want = ref[i];
      EXPECT_EQ(got.ost, want.ost) << "k=" << k << " rank " << i;
      EXPECT_EQ(got.score, want.score) << "k=" << k << " rank " << i;
      EXPECT_EQ(got.load_ewma, want.load_ewma) << "k=" << k << " rank " << i;
      EXPECT_EQ(got.service_ewma_s, want.service_ewma_s) << "k=" << k << " rank " << i;
      EXPECT_EQ(got.writes, want.writes) << "k=" << k << " rank " << i;
      EXPECT_EQ(got.m_dirty, want.m_dirty) << "k=" << k << " rank " << i;
    }
  }
}

// --- snapshots ---------------------------------------------------------------

TEST(Live, SnapshotBitwiseStable) {
  // Two identical rigs produce identical record streams (the simulator is
  // deterministic), so snapshots taken at the same sim timestamps must be
  // byte-identical.
  LiveRig a;
  LiveRig b;
  (void)a.run();
  (void)b.run();
  EXPECT_EQ(a.live.snapshot_json(a.live.now()).dump(),
            b.live.snapshot_json(b.live.now()).dump());
  const std::string fin_a = a.live.snapshot_json(a.live.now(), /*final=*/true).dump();
  const std::string fin_b = b.live.snapshot_json(b.live.now(), /*final=*/true).dump();
  EXPECT_EQ(fin_a, fin_b);
  // The final row carries the attribution block the CI gate reads.
  EXPECT_NE(fin_a.find("\"attribution\""), std::string::npos);
  EXPECT_NE(fin_a.find("\"schema\":\"aio-live-v1\""), std::string::npos);
}

TEST(Live, SnapshotFileGetsRowsAndFinalRow) {
  const std::string path = testing::TempDir() + "aio_live_rows.jsonl";
  obs::LivePlane::Config lc;
  lc.snapshot_path = path;
  lc.flight_records = 0;
  {
    LiveRig rig(lc);
    ASSERT_TRUE(rig.live.snapshot_enabled());
    (void)rig.run();
    rig.live.snapshot_tick(rig.live.now());
    rig.live.flush();
    EXPECT_EQ(rig.live.rows_written(), 2u);  // one tick + the final row
    EXPECT_EQ(rig.live.rows_dropped(), 0u);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::vector<std::string> lines;
  char buf[1 << 16];
  while (std::fgets(buf, sizeof buf, f)) lines.emplace_back(buf);
  std::fclose(f);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    const std::optional<obs::Json> row = obs::Json::parse(line);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(row->find("schema")->str(), "aio-live-v1");
  }
  EXPECT_EQ(obs::Json::parse(lines[0])->find("final"), nullptr);
  EXPECT_NE(obs::Json::parse(lines[1])->find("final"), nullptr);
  std::remove(path.c_str());
}

// --- flight recorder ---------------------------------------------------------

TEST(Live, FlightRecorderKeepsTailAndDumpsLoadableJournal) {
  obs::LivePlane::Config lc;
  lc.flight_records = 32;
  LiveRig rig(lc);
  (void)rig.run();

  const std::vector<obs::Record>& all = rig.journal.records();
  ASSERT_GT(all.size(), 32u);  // the ring must have wrapped
  EXPECT_EQ(rig.live.flight_size(), 32u);
  EXPECT_EQ(rig.live.flight_total(), all.size());

  const std::string path = testing::TempDir() + "aio_flight_dump.journal";
  ASSERT_TRUE(rig.live.dump_flight(path));
  const std::optional<obs::Journal> back = obs::Journal::load(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->records().size(), 32u);
  // Oldest-first: the dump is exactly the journal's last 32 records.
  for (std::size_t i = 0; i < 32; ++i) {
    const obs::Record& want = all[all.size() - 32 + i];
    const obs::Record& got = back->records()[i];
    EXPECT_EQ(got.t, want.t);
    EXPECT_EQ(static_cast<int>(got.kind), static_cast<int>(want.kind));
    EXPECT_EQ(got.id, want.id);
  }
  // The dump is analyzable evidence, not just bytes.
  const obs::Json report = obs::analyze(*back);
  EXPECT_EQ(report.find("schema")->str(), "aio-report-v1");
  std::remove(path.c_str());
}

// --- env parsing -------------------------------------------------------------

TEST(Live, FromEnvParsesKnobsAndRejectsGarbage) {
  const auto clear = [] {
    for (const char* v : {"AIO_LIVE", "AIO_FLIGHT", "AIO_LIVE_PERIOD_S"}) unsetenv(v);
  };
  clear();
  EXPECT_EQ(obs::LivePlane::from_env(0), nullptr);

  // Query-only plane: "-" arms the plane without a snapshot stream.
  setenv("AIO_LIVE", "-", 1);
  auto plane = obs::LivePlane::from_env(0);
  ASSERT_NE(plane, nullptr);
  EXPECT_FALSE(plane->snapshot_enabled());
  EXPECT_FALSE(plane->flight_enabled());  // ring only arms with AIO_FLIGHT

  // A malformed period warns (stderr) and keeps the default; a valid one
  // sticks.
  setenv("AIO_LIVE_PERIOD_S", "-3", 1);
  plane = obs::LivePlane::from_env(0);
  ASSERT_NE(plane, nullptr);
  EXPECT_EQ(plane->config().snapshot_period_s, 1.0);
  setenv("AIO_LIVE_PERIOD_S", "0.25", 1);
  plane = obs::LivePlane::from_env(0);
  ASSERT_NE(plane, nullptr);
  EXPECT_EQ(plane->config().snapshot_period_s, 0.25);

  setenv("AIO_FLIGHT", "flight.bin", 1);
  plane = obs::LivePlane::from_env(0);
  ASSERT_NE(plane, nullptr);
  EXPECT_EQ(plane->config().flight_records, obs::LivePlane::Config{}.flight_records);
  EXPECT_EQ(plane->config().flight_path, "flight.bin");
  // Slot numbering matches the other sinks: slot 1 writes "<path>.2".
  const auto second = obs::LivePlane::from_env(1);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->config().flight_path, "flight.bin.2");

  unsetenv("AIO_LIVE");
  auto flight_only = obs::LivePlane::from_env(0);
  ASSERT_NE(flight_only, nullptr);  // AIO_FLIGHT alone still arms the plane
  EXPECT_FALSE(flight_only->snapshot_enabled());
  EXPECT_TRUE(flight_only->flight_enabled());
  clear();
}

}  // namespace
