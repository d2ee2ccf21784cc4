// Tests for the observability layer: JSON round-trips, counter/gauge/series
// semantics, the journal-rendered Chrome trace, sampler accuracy against a
// hand-solved OST drain, record-derived metrics, and the protocol
// instrumentation agreeing with IoResult.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/api/adios.hpp"
#include "core/transports/adaptive_transport.hpp"
#include "fs/filesystem.hpp"
#include "fs/ost.hpp"
#include "net/network.hpp"
#include "obs/analysis.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/observers.hpp"
#include "obs/recorder.hpp"
#include "obs/sampler.hpp"
#include "obs/trace_export.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aio;

// --- Json --------------------------------------------------------------------

TEST(Json, RoundTripsNestedDocument) {
  obs::Json doc = obs::Json::object();
  doc.set("name", "trace \"x\"\n");
  doc.set("count", obs::Json(42.0));
  doc.set("ratio", obs::Json(0.5));
  doc.set("on", obs::Json(true));
  doc.set("none", obs::Json(nullptr));
  obs::Json arr = obs::Json::array();
  arr.push(obs::Json(1.0));
  arr.push(obs::Json(-2.25));
  doc.set("xs", std::move(arr));

  const std::string text = doc.dump();
  const std::optional<obs::Json> back = obs::Json::parse(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), text);
  // Integral doubles serialize without a fractional part.
  EXPECT_NE(text.find("\"count\":42"), std::string::npos);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_FALSE(obs::Json::parse("{").has_value());
  EXPECT_FALSE(obs::Json::parse("[1,]").has_value());
  EXPECT_FALSE(obs::Json::parse("{} trailing").has_value());
  EXPECT_FALSE(obs::Json::parse("nul").has_value());
  ASSERT_TRUE(obs::Json::parse("{\"u\":\"\\u00e9\"}").has_value());
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, CounterAndGaugeSemantics) {
  obs::Registry reg;
  reg.counter("ops").add();
  reg.counter("ops").add(4);
  reg.gauge("level").set(2.5);
  reg.gauge("level").set(1.5);  // gauges overwrite, counters accumulate
  EXPECT_EQ(reg.counter("ops").value(), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("level").value(), 1.5);

  // References stay valid across later insertions (std::map storage).
  obs::Counter& ops = reg.counter("ops");
  for (int i = 0; i < 64; ++i) reg.counter("other" + std::to_string(i));
  ops.add();
  EXPECT_EQ(reg.counter("ops").value(), 6u);

  const std::optional<obs::Json> doc = obs::Json::parse(reg.to_json().dump());
  ASSERT_TRUE(doc.has_value());
  EXPECT_NE(doc->find("counters"), nullptr);
  EXPECT_NE(doc->find("gauges"), nullptr);
}

TEST(Registry, SeriesDecimatesToBoundedSketch) {
  obs::Registry reg;
  obs::Series& s = reg.series("q", /*max_points=*/16);
  for (int i = 0; i < 1000; ++i) s.add(static_cast<double>(i), static_cast<double>(i));
  EXPECT_EQ(s.offered(), 1000u);
  EXPECT_LE(s.samples().size(), 16u);
  EXPECT_GT(s.stride(), 1u);
  // The sketch stays time-ordered and spans the timeline.
  const auto& pts = s.samples();
  ASSERT_GE(pts.size(), 2u);
  for (std::size_t i = 1; i < pts.size(); ++i) EXPECT_LT(pts[i - 1].first, pts[i].first);
  EXPECT_GE(pts.back().first, 500.0);
}

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, QuantilesWithinSketchError) {
  obs::Histogram h(/*rel_err=*/0.01);
  // 10,000 evenly spaced values over three decades: the true quantile q is
  // (approximately) q * 10 s, and every estimate must land within the
  // sketch's relative-error guarantee (bucket midpoint, ~1%).
  for (int i = 1; i <= 10000; ++i) h.add(i * 1e-3);
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-3);   // exact extrema
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  for (const double q : {0.25, 0.50, 0.75, 0.90, 0.99}) {
    const double truth = q * 10.0;
    EXPECT_NEAR(h.quantile(q), truth, 0.02 * truth) << "q=" << q;
  }
  EXPECT_NEAR(h.mean(), h.sum() / 10000.0, 1e-9);

  // Empty histogram: zeros, no division by zero.
  const obs::Histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST(Histogram, EmptySketchIsAllZeros) {
  const obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) EXPECT_DOUBLE_EQ(h.quantile(q), 0.0);
  const obs::Json j = h.to_json();
  EXPECT_DOUBLE_EQ(j.find("count")->number(), 0.0);
  EXPECT_DOUBLE_EQ(j.find("p99")->number(), 0.0);
}

TEST(Histogram, SingleSampleDominatesEveryQuantile) {
  obs::Histogram h;
  h.add(0.125);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.125);
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
  EXPECT_DOUBLE_EQ(h.max(), 0.125);
  // Interior quantiles come from the sketch midpoint but clamp to [min, max],
  // so with one sample every quantile is exactly that sample.
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(h.quantile(q), 0.125) << "q=" << q;
  // Out-of-range q clamps rather than misindexing.
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), 0.125);
  EXPECT_DOUBLE_EQ(h.quantile(2.0), 0.125);
}

TEST(Histogram, ExtremeValuesLandInClampedBuckets) {
  // Sub-floor values (zero, denormal-scale) clamp into the smallest tracked
  // bucket rather than computing log(0); exact min/max still ride along.
  obs::Histogram tiny;
  tiny.add(0.0);
  tiny.add(1e-300);
  tiny.add(1.0);
  EXPECT_EQ(tiny.count(), 3u);
  EXPECT_DOUBLE_EQ(tiny.min(), 0.0);
  EXPECT_DOUBLE_EQ(tiny.max(), 1.0);
  EXPECT_DOUBLE_EQ(tiny.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(tiny.quantile(1.0), 1.0);
  // The two clamped samples share the floor bucket: the median estimate is
  // the floor-bucket midpoint, clamped back into [min, max].
  EXPECT_LE(tiny.quantile(0.5), 1e-11);
  EXPECT_GE(tiny.quantile(0.5), 0.0);

  // A huge-dynamic-range sketch (300 decades) stays finite and ordered —
  // bucket storage is O(observed index range), not O(value).
  obs::Histogram wide;
  wide.add(1e-300);
  wide.add(1e300);
  EXPECT_DOUBLE_EQ(wide.min(), 1e-300);
  EXPECT_DOUBLE_EQ(wide.max(), 1e300);
  EXPECT_LE(wide.quantile(0.25), wide.quantile(0.75));
  EXPECT_TRUE(std::isfinite(wide.quantile(0.5)));

  // And the ~1% relative-error guarantee holds out at the huge end.
  obs::Histogram big;
  for (int i = 0; i < 1000; ++i) big.add(1e9);
  EXPECT_NEAR(big.quantile(0.5), 1e9, 0.02 * 1e9);
}

TEST(Histogram, RegistrySerializesSketches) {
  obs::Registry reg;
  for (int i = 1; i <= 100; ++i) reg.histogram("svc").add(i * 0.01);
  const std::optional<obs::Json> doc = obs::Json::parse(reg.to_json().dump());
  ASSERT_TRUE(doc.has_value());
  const obs::Json* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const obs::Json* svc = hists->find("svc");
  ASSERT_NE(svc, nullptr);
  EXPECT_DOUBLE_EQ(svc->find("count")->number(), 100.0);
  EXPECT_NE(svc->find("p99"), nullptr);
  EXPECT_NE(reg.render_text().find("svc"), std::string::npos);
}

// --- merge_records -----------------------------------------------------------

obs::Record rec(double t, obs::Rec kind, std::uint32_t id, std::uint8_t a = 0) {
  obs::Record r;
  r.t = t;
  r.kind = kind;
  r.id = id;
  r.a = a;
  return r;
}

TEST(MergeRecords, TiedTimestampsOrderByKindThenContent) {
  // A sharded epilogue in miniature: the run's kComplete mark, a writer end,
  // an OST state flip, and two host-profile records all land at the same
  // simulated instant, interleaved adversarially across two journals.
  const double t = 4.0;
  obs::Journal a({/*path=*/"", /*max_records=*/64});
  obs::Journal b({/*path=*/"", /*max_records=*/64});
  a.append(rec(t, obs::Rec::kProfShard, /*shard=*/1, /*n_shards=*/2));
  a.append(rec(t, obs::Rec::kRunMark, 1, static_cast<std::uint8_t>(obs::Mark::kComplete)));
  a.append(rec(t - 1.0, obs::Rec::kWriterStart, 3));
  b.append(rec(t, obs::Rec::kOstState, 0));
  b.append(rec(t, obs::Rec::kProfShard, /*shard=*/0, /*n_shards=*/2));
  b.append(rec(t, obs::Rec::kWriterEnd, 3));

  std::vector<obs::Record> merged;
  obs::merge_records({&a, &b}, merged);
  ASSERT_EQ(merged.size(), 6u);
  // Strictly earlier timestamps first, whatever the kind.
  EXPECT_EQ(merged[0].kind, obs::Rec::kWriterStart);
  // At the tie: ascending kind — run mark (2), writer end (6), OST state (7).
  EXPECT_EQ(merged[1].kind, obs::Rec::kRunMark);
  EXPECT_EQ(merged[2].kind, obs::Rec::kWriterEnd);
  EXPECT_EQ(merged[3].kind, obs::Rec::kOstState);
  // Host-profile records (kind 11, the largest) always sort after every
  // simulated record at the same instant, shard order broken bytewise.
  EXPECT_EQ(merged[4].kind, obs::Rec::kProfShard);
  EXPECT_EQ(merged[4].id, 0u);
  EXPECT_EQ(merged[5].kind, obs::Rec::kProfShard);
  EXPECT_EQ(merged[5].id, 1u);
}

TEST(MergeRecords, ResultDependsOnlyOnTheMultiset) {
  // Same six records, three different distributions over shard journals
  // (including one empty part and a null part): identical merged bytes.
  const std::vector<obs::Record> all = {
      rec(1.0, obs::Rec::kRunBegin, 1),
      rec(2.0, obs::Rec::kWriterSignal, 0),
      rec(2.0, obs::Rec::kWriterStart, 0),
      rec(2.0, obs::Rec::kProfShard, 0, 1),
      rec(2.0, obs::Rec::kMdsOp, 0),
      rec(3.0, obs::Rec::kRunMark, 1, static_cast<std::uint8_t>(obs::Mark::kComplete)),
  };
  obs::Journal one({/*path=*/"", 64}), two_a({/*path=*/"", 64}), two_b({/*path=*/"", 64}),
      empty({/*path=*/"", 64});
  for (const obs::Record& r : all) one.append(r);
  for (std::size_t i = 0; i < all.size(); ++i)
    (i % 2 ? two_a : two_b).append(all[all.size() - 1 - i]);  // reversed, split

  std::vector<obs::Record> base;
  obs::merge_records({&one}, base);
  // The output is replaced, not appended to: stale contents never leak in.
  std::vector<obs::Record> split(3, rec(9.0, obs::Rec::kMdsOp, 7));
  obs::merge_records({&two_a, &two_b, &empty, nullptr}, split);
  ASSERT_EQ(base.size(), all.size());
  ASSERT_EQ(split.size(), all.size());
  EXPECT_EQ(std::memcmp(base.data(), split.data(), base.size() * sizeof(obs::Record)), 0);
  // And the profiler record still trails its same-time simulated peers.
  EXPECT_EQ(base[4].kind, obs::Rec::kProfShard);
}

// --- rendered Chrome trace ----------------------------------------------------

/// Events of a trace document with phase `ph` whose name starts with
/// `prefix` (empty = any).
std::size_t count_events(const obs::Json& trace, const char* ph, const std::string& prefix = {}) {
  std::size_t n = 0;
  for (const obs::Json& e : trace.find("traceEvents")->items()) {
    if (e.find("ph")->str() != ph) continue;
    const obs::Json* name = e.find("name");
    if (!prefix.empty() && (!name || name->str().rfind(prefix, 0) != 0)) continue;
    ++n;
  }
  return n;
}

TEST(TraceExport, RenderedTraceRoundTripsAsChromeTrace) {
  obs::Journal journal{{/*path=*/"", /*max_records=*/16}};
  const auto add = [&journal](obs::Rec kind, double t, std::uint32_t id, std::uint32_t u0,
                              std::uint8_t a, double v0) {
    obs::Record r;
    r.kind = kind;
    r.t = t;
    r.id = id;
    r.u0 = u0;
    r.a = a;
    r.v0 = v0;
    journal.append(r);
  };
  add(obs::Rec::kMdsOp, 0.5, 0, 2, /*Open*/ 0, /*service_s=*/0.25);
  // Writer 6 renders on thread 7 (thread 0 is the run track).
  add(obs::Rec::kWriterStart, 1.0, 6, /*file=*/3, 0, /*bytes=*/4096.0);
  add(obs::Rec::kOstState, 1.5, 2, /*m_dirty=*/3, /*cache_full=*/1, /*efficiency=*/0.9);
  add(obs::Rec::kOstState, 2.5, 2, /*m_dirty=*/3, /*cache_full=*/0, /*efficiency=*/0.9);
  add(obs::Rec::kWriterEnd, 3.0, 6, 3, 0, 0.0);

  // The streamed file and the in-memory document carry the same events.
  const std::string path = ::testing::TempDir() + "rendered_trace.json";
  ASSERT_TRUE(obs::write_journal_trace(journal, path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  const std::optional<obs::Json> doc = obs::Json::parse(text.str());
  ASSERT_TRUE(doc.has_value()) << text.str();
  EXPECT_EQ(doc->dump(), obs::journal_trace(journal).dump());

  // Four track groups plus the ost2 and mds0 threads.
  EXPECT_EQ(count_events(*doc, "M"), 6u);
  EXPECT_EQ(count_events(*doc, "B"), count_events(*doc, "E"));
  // Storage: cache edges as instants, the dirty-stream count and drain
  // efficiency as counters on transitions only, external load every record.
  EXPECT_EQ(count_events(*doc, "i", "ost2.cache_full"), 1u);
  EXPECT_EQ(count_events(*doc, "i", "ost2.cache_drained"), 1u);
  EXPECT_EQ(count_events(*doc, "C", "ost2.dirty_streams"), 1u);
  EXPECT_EQ(count_events(*doc, "C", "ost2.efficiency"), 1u);
  EXPECT_EQ(count_events(*doc, "C", "ost2 ext"), 2u);
  EXPECT_EQ(count_events(*doc, "C", "mds.backlog"), 1u);
  // Timestamps are simulated seconds in microseconds; the MDS span lasts its
  // service time.
  for (const obs::Json& e : doc->find("traceEvents")->items()) {
    const obs::Json* name = e.find("name");
    if (name && name->str() == "write") {
      EXPECT_EQ(e.find("ts")->dump(), "1000000");
      EXPECT_EQ(e.find("pid")->dump(), "2");
      EXPECT_EQ(e.find("tid")->dump(), "7");
      EXPECT_EQ(e.find("args")->find("file")->dump(), "3");
    } else if (name && name->str() == "mds.open") {
      EXPECT_EQ(e.find("ts")->dump(), "500000");
      EXPECT_EQ(e.find("pid")->dump(), "4");
    } else if (e.find("ph")->str() == "E" && e.find("pid")->dump() == "4") {
      EXPECT_EQ(e.find("ts")->dump(), "750000");
    } else if (name && name->str() == "ost2.dirty_streams") {
      EXPECT_EQ(e.find("args")->find("value")->dump(), "3");
    }
  }
  EXPECT_EQ(count_events(*doc, "B", "write"), 1u);
  EXPECT_EQ(count_events(*doc, "B", "mds.open"), 1u);
}

std::optional<obs::Json> load_json(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return obs::Json::parse(text.str());
}

// AIO_TRACE alone arms an in-memory journal whose end-of-run hook renders
// the trace to the path numbered per slot; AIO_JOURNAL adds the binary file.
TEST(TraceExport, TraceEnvArmsAJournalAndFlushRendersIt) {
  for (const char* v : {"AIO_TRACE", "AIO_JOURNAL", "AIO_REPORT"}) unsetenv(v);
  EXPECT_EQ(obs::Journal::from_env(0), nullptr);

  const std::string trace = ::testing::TempDir() + "env_trace.json";
  setenv("AIO_TRACE", trace.c_str(), 1);
  const auto journal = obs::Journal::from_env(0);
  ASSERT_NE(journal, nullptr);
  EXPECT_TRUE(journal->config().path.empty());  // in memory: no AIO_JOURNAL

  obs::Record r;
  r.kind = obs::Rec::kWriterStart;
  r.t = 0.5;
  journal->append(r);
  EXPECT_EQ(obs::numbered_path(trace, 1), trace + ".2");
  for (int slot : {0, 1}) {
    ASSERT_TRUE(obs::flush_report(*journal, slot));
    const std::string path = obs::numbered_path(trace, slot);
    const std::optional<obs::Json> doc = load_json(path);
    ASSERT_TRUE(doc.has_value()) << path;
    EXPECT_EQ(count_events(*doc, "B", "write"), 1u);
    std::remove(path.c_str());
  }

  setenv("AIO_JOURNAL", "run.journal", 1);
  const auto both = obs::Journal::from_env(2);
  ASSERT_NE(both, nullptr);
  EXPECT_EQ(both->config().path, "run.journal.3");
  for (const char* v : {"AIO_TRACE", "AIO_JOURNAL"}) unsetenv(v);
}

// --- Sampler vs hand-computed OST drain --------------------------------------

// A 1000 B durable write into an OST with ingest 1000 B/s, disk 100 B/s and a
// roomy cache: occupancy rises at the net 900 B/s until ingest completes at
// t=1 (occupancy 900), then drains at 100 B/s, empty (and done) at t=10.
TEST(Sampler, PerOstSeriesMatchesFluidModel) {
  obs::Registry reg;
  sim::Engine engine;
  fs::Ost::Config cfg;
  cfg.ingest_bw = 1000.0;
  cfg.disk_bw = 100.0;
  cfg.cache_bytes = 1e6;
  cfg.per_stream_cap = 0.0;
  cfg.alpha = 0.0;
  cfg.eff_floor = 0.0;
  cfg.op_latency_s = 0.0;
  fs::Ost ost(engine, cfg);

  obs::Sampler sampler(reg, /*period_s=*/0.5);
  sampler.add_probe("ost0.cache_occupancy", [&](double) { return ost.cache_occupancy(); });

  // Tick at 0.25, 0.75, 1.25, ... — off the model's own breakpoints.
  std::function<void()> arm = [&] {
    sampler.tick(engine.now());
    engine.schedule_daemon_after(0.5, arm);
  };
  engine.schedule_daemon_after(0.25, arm);

  sim::Time done = -1.0;
  ost.write(1000.0, fs::Ost::Mode::Durable, [&](sim::Time t) { done = t; });
  engine.run();
  EXPECT_NEAR(done, 10.0, 1e-6);

  const auto& samples = reg.series("ost0.cache_occupancy").samples();
  ASSERT_GE(samples.size(), 19u);  // daemons ticked up to t=done
  for (const auto& [t, q] : samples) {
    const double expected = t <= 1.0 ? 900.0 * t : 900.0 - 100.0 * (t - 1.0);
    EXPECT_NEAR(q, expected, 1e-6) << "at t=" << t;
  }
}

// --- Protocol instrumentation agrees with IoResult ---------------------------

/// One 16-writer adaptive collective on a 4-OST rig whose target 0 carries
/// heavy external load, so its group falls behind and gets stolen from.
core::IoResult run_loaded_rig(obs::Recorder* recorder) {
  sim::Engine engine(recorder);
  fs::FsConfig fc;
  fc.n_osts = 4;
  fc.fabric_bw = 0.0;
  fc.stripe_limit = 4;
  fc.default_stripe_size = 1e6;
  fc.ost.ingest_bw = 100e6;
  fc.ost.disk_bw = 10e6;
  fc.ost.cache_bytes = 50e6;
  fc.ost.per_stream_cap = 0.0;
  fc.ost.alpha = 0.0;
  fc.ost.eff_floor = 0.0;
  fc.mds.open_base_s = 1e-4;
  fc.mds.close_base_s = 1e-4;
  fs::FileSystem filesystem(engine, fc);
  net::Network network(engine, net::NetConfig{1e-6, 10e9, 8}, 64);
  filesystem.ost(0).set_load(0.8, 0.8);

  core::AdaptiveTransport::Config ac;
  ac.n_files = 4;
  core::AdaptiveTransport transport(filesystem, network, ac);
  std::optional<core::IoResult> result;
  transport.run(core::IoJob::uniform(16, 8e6), [&](core::IoResult r) { result = std::move(r); });
  engine.run();
  EXPECT_TRUE(result.has_value());
  return result.value_or(core::IoResult{});
}

TEST(ProtocolTrace, StealInstantsMatchIoResult) {
  obs::Journal journal{{/*path=*/"", /*max_records=*/1u << 20}};
  obs::Registry reg;
  obs::Recorder recorder(&journal, /*live=*/nullptr, &reg);
  const core::IoResult result = run_loaded_rig(&recorder);
  EXPECT_GT(result.steals, 0u);

  // Every steal completion renders exactly one instant; every writer opens
  // exactly one data-write span (stolen or not), and all spans close.
  const obs::Json trace = obs::journal_trace(journal);
  EXPECT_EQ(count_events(trace, "i", "steal-complete "), result.steals);
  EXPECT_EQ(count_events(trace, "B", "write"), 16u);
  EXPECT_EQ(count_events(trace, "B"), count_events(trace, "E"));
  // The registry's protocol counters derive from the same records.
  EXPECT_EQ(reg.counter("protocol.steals").value(), result.steals);
  EXPECT_EQ(reg.counter("protocol.runs").value(), 1u);
  EXPECT_GE(reg.counter("protocol.steal_grants").value(), result.steals);
  EXPECT_EQ(reg.gauge("protocol.last_steals").value(), static_cast<double>(result.steals));
  EXPECT_EQ(reg.histogram("protocol.writer_s").count(), 16u);
  EXPECT_DOUBLE_EQ(reg.histogram("protocol.run_s").max(), result.t_complete - result.t_begin);
}

// The cache-full counter derives from kOstState records, so it does not
// depend on which other observers are attached: a metrics-only recorder
// counts exactly the 0->1 cache_full edges a journal of the same run holds.
TEST(RecordMetrics, CacheFullCrossingsNeedNoOtherObserver) {
  // Two bursts of four 4 MB streams into one OST with a 4 MB cache: each
  // burst fills the cache, and stream completions and a load change re-emit
  // the state while it stays full, so records with cache_full set outnumber
  // the crossings.
  const auto run = [](obs::Recorder& recorder) {
    sim::Engine engine(&recorder);
    fs::Ost::Config cfg;
    cfg.cache_bytes = 4e6;
    cfg.ingest_bw = 100e6;
    cfg.disk_bw = 10e6;
    fs::Ost ost(engine, cfg, 0);
    for (int burst = 0; burst < 2; ++burst) {
      for (int i = 0; i < 4; ++i) ost.write(4e6, fs::Ost::Mode::Durable, [](sim::Time) {});
      engine.schedule_after(0.5, [&ost] { ost.set_load(0.5, 0.5); });
      engine.run();
      ost.set_load(0.0, 0.0);
    }
  };
  obs::Registry reg;
  obs::Recorder metrics_only(nullptr, nullptr, &reg);
  run(metrics_only);

  obs::Journal journal{{/*path=*/"", /*max_records=*/1u << 16}};
  obs::Recorder journal_only(&journal);
  run(journal_only);
  std::uint8_t full = 0;
  std::uint64_t edges = 0, full_records = 0;
  for (const obs::Record& r : journal.records()) {
    if (r.kind != obs::Rec::kOstState) continue;
    if (r.a != 0 && full == 0) ++edges;
    full_records += r.a;
    full = r.a;
  }
  EXPECT_GT(full_records, edges);
  EXPECT_EQ(edges, 2u);
  EXPECT_EQ(reg.counter("storage.cache_full_crossings").value(), edges);
}

// --- observers never perturb the simulation ---------------------------------

/// Three collectives on a 4-OST rig (Storm opens, two loaded targets, steals
/// with a real choice of source) under shifting external load, with one
/// recorder carrying every subscriber attached, or none.
std::vector<core::IoResult> observed_runs(bool observers) {
  obs::Registry metrics;
  obs::Journal journal{{/*path=*/"", /*max_records=*/1u << 20}};
  obs::LivePlane live{obs::LivePlane::Config{}};
  obs::Recorder recorder(&journal, &live, &metrics);
  sim::Engine engine(observers ? &recorder : nullptr);
  fs::FsConfig fc;
  fc.n_osts = 4;
  fc.fabric_bw = 0.0;
  fc.stripe_limit = 4;
  fc.default_stripe_size = 1e6;
  fc.ost.ingest_bw = 100e6;
  fc.ost.disk_bw = 10e6;
  fc.ost.cache_bytes = 50e6;
  fc.ost.per_stream_cap = 0.0;
  fc.ost.alpha = 0.0;
  fc.ost.eff_floor = 0.0;
  fc.mds.open_base_s = 1e-4;
  fc.mds.close_base_s = 1e-4;
  fs::FileSystem filesystem(engine, fc);
  net::Network network(engine, net::NetConfig{1e-6, 10e9, 8}, 64);
  core::AdaptiveTransport::Config ac;
  ac.n_files = 4;
  ac.open_mode = core::AdaptiveTransport::Config::OpenMode::Storm;
  core::AdaptiveTransport transport(filesystem, network, ac);
  std::vector<core::IoResult> out;
  for (const double load : {0.8, 0.5, 0.9}) {
    filesystem.ost(1).set_load(load, load);
    filesystem.ost(3).set_load(load / 2, load / 2);
    transport.run(core::IoJob::uniform(32, 8e6), [&](core::IoResult r) { out.push_back(r); });
    engine.run();
  }
  if (observers) {
    EXPECT_GT(journal.records().size(), 0u);
    EXPECT_EQ(live.runs_completed(), 3u);
    EXPECT_GT(count_events(obs::journal_trace(journal), "B", "write"), 0u);
    EXPECT_EQ(metrics.counter("protocol.runs").value(), 3u);
  }
  return out;
}

// No simulated decision reads an observer: a run whose recorder carries the
// journal, live plane and metrics registry is bit-identical to a bare one.
TEST(ObserverPurity, ObserversDoNotPerturbTheRun) {
  const std::vector<core::IoResult> bare = observed_runs(false);
  const std::vector<core::IoResult> watched = observed_runs(true);
  ASSERT_EQ(bare.size(), 3u);
  ASSERT_EQ(watched.size(), bare.size());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t k = 0; k < bare.size(); ++k) {
    const core::IoResult& a = bare[k];
    const core::IoResult& b = watched[k];
    EXPECT_GT(a.steals, 0u) << "run " << k;
    EXPECT_EQ(a.steals, b.steals) << "run " << k;
    EXPECT_EQ(bits(a.t_begin), bits(b.t_begin)) << "run " << k;
    EXPECT_EQ(bits(a.t_open_done), bits(b.t_open_done)) << "run " << k;
    EXPECT_EQ(bits(a.t_data_done), bits(b.t_data_done)) << "run " << k;
    EXPECT_EQ(bits(a.t_complete), bits(b.t_complete)) << "run " << k;
    ASSERT_EQ(a.writer_times.size(), b.writer_times.size());
    for (std::size_t w = 0; w < a.writer_times.size(); ++w) {
      EXPECT_EQ(bits(a.writer_times[w].start), bits(b.writer_times[w].start))
          << "run " << k << " writer " << w;
      EXPECT_EQ(bits(a.writer_times[w].end), bits(b.writer_times[w].end))
          << "run " << k << " writer " << w;
    }
  }
}

// --- The observer host (obs::Observers) --------------------------------------

// Clears every AIO_* variable an observer host reads, on entry and on exit,
// so a case sees only the variables it sets.
struct CleanObsEnv {
  static constexpr const char* kVars[] = {"AIO_JOURNAL", "AIO_REPORT", "AIO_TRACE",
                                          "AIO_LIVE",    "AIO_FLIGHT", "AIO_METRICS"};
  CleanObsEnv() { clear(); }
  ~CleanObsEnv() { clear(); }
  static void clear() {
    for (const char* v : kVars) unsetenv(v);
  }
};

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

fs::MachineSpec tiny_machine() {
  fs::MachineSpec m = fs::xtp();
  m.fs.n_osts = 8;
  m.fs.fabric_bw = 0.0;
  m.fs.stripe_limit = 4;
  m.nodes = 16;
  m.cores_per_node = 4;
  return m;
}

/// `steps` adaptive output steps of 16 writers on `sim`.
void write_steps(api::Simulation& sim, int steps) {
  api::IoGroup g("out");
  const auto v = g.define_var("x", api::Type::Double, {1u << 20});
  for (int k = 0; k < steps; ++k)
    (void)sim.write_step(g, api::Method::Adaptive, 16, [&](core::Rank r) {
      api::WriteSet ws(g);
      ws.put(v, {static_cast<std::uint64_t>(r) * 1024}, {1024});
      return ws;
    });
}

// Two first-come machines in one scope, destroyed in reverse order: each
// machine's journal, report and live rows must carry one slot number, so the
// report at `<report>.k` analyses the journal at `<journal>.k`.
TEST(ObserverHost, EachMachineNumbersAllItsArtifactsAlike) {
  const CleanObsEnv env;
  const std::string dir = ::testing::TempDir();
  const std::string journal = dir + "slot.journal";
  const std::string report = dir + "slot_report.json";
  const std::string live = dir + "slot_live.jsonl";
  setenv("AIO_JOURNAL", journal.c_str(), 1);
  setenv("AIO_REPORT", report.c_str(), 1);
  setenv("AIO_LIVE", live.c_str(), 1);
  std::string suffix[2];
  {
    api::Simulation one(tiny_machine(), 1, api::Simulation::Options{.background_load = false});
    api::Simulation two(tiny_machine(), 2, api::Simulation::Options{.background_load = false});
    write_steps(one, 1);
    write_steps(two, 2);
    api::Simulation* sims[2] = {&one, &two};
    for (int k = 0; k < 2; ++k) {
      ASSERT_NE(sims[k]->observers().journal(), nullptr);
      ASSERT_NE(sims[k]->observers().live(), nullptr);
      const std::string& path = sims[k]->observers().journal()->config().path;
      ASSERT_EQ(path.rfind(journal, 0), 0u) << path;
      suffix[k] = path.substr(journal.size());
      EXPECT_EQ(sims[k]->observers().live()->config().snapshot_path, live + suffix[k]);
    }
    EXPECT_NE(suffix[0], suffix[1]);
  }  // `two` flushes first
  for (int k = 0; k < 2; ++k) {
    const std::optional<obs::Journal> j = obs::Journal::load(journal + suffix[k]);
    ASSERT_TRUE(j.has_value()) << journal + suffix[k];
    const std::optional<obs::Json> r = load_json(report + suffix[k]);
    ASSERT_TRUE(r.has_value()) << report + suffix[k];
    const obs::Json analysed = obs::analyze(*j);
    ASSERT_NE(analysed.find("runs"), nullptr);
    ASSERT_NE(r->find("runs"), nullptr);
    EXPECT_EQ(analysed.find("runs")->size(), static_cast<std::size_t>(k + 1)) << k;
    EXPECT_EQ(r->find("runs")->size(), analysed.find("runs")->size()) << k;
    for (const std::string& p : {journal, report, live}) std::remove((p + suffix[k]).c_str());
  }
}

// flush() is latched: the first call writes every artifact once, a second
// call writes nothing (and prints no second report summary).
TEST(ObserverHost, SecondFlushIsANoOp) {
  const CleanObsEnv env;
  const std::string dir = ::testing::TempDir();
  const std::string paths[] = {dir + "once.journal", dir + "once_report.json",
                               dir + "once_trace.json", dir + "once_live.jsonl",
                               dir + "once_metrics.json"};
  setenv("AIO_JOURNAL", paths[0].c_str(), 1);
  setenv("AIO_REPORT", paths[1].c_str(), 1);
  setenv("AIO_TRACE", paths[2].c_str(), 1);
  setenv("AIO_LIVE", paths[3].c_str(), 1);
  setenv("AIO_METRICS", paths[4].c_str(), 1);
  obs::Observers observers(/*slot=*/0);
  ASSERT_NE(observers.recorder(), nullptr);
  ASSERT_NE(observers.metrics(), nullptr);
  sim::Engine engine(observers.recorder());
  observers.attach(engine);
  observers.recorder()->emit(rec(0.5, obs::Rec::kWriterStart, 0));
  engine.schedule_after(2.5, [] {});
  engine.run();

  EXPECT_TRUE(observers.flush(/*aborted=*/false));
  for (const std::string& p : paths) {
    EXPECT_TRUE(file_exists(p)) << p;
    std::remove(p.c_str());
  }
  EXPECT_GT(observers.live()->rows_written(), 0u);

  testing::internal::CaptureStdout();
  EXPECT_FALSE(observers.flush(/*aborted=*/false));
  EXPECT_FALSE(observers.flush(/*aborted=*/true));
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  for (const std::string& p : paths) EXPECT_FALSE(file_exists(p)) << p;
}

// api::Simulation always carries a registry and now writes it to
// AIO_METRICS like every other host; its run counter counts its steps.
TEST(ObserverHost, SimulationWritesMetrics) {
  const CleanObsEnv env;
  const std::string path = ::testing::TempDir() + "sim_metrics.json";
  setenv("AIO_METRICS", path.c_str(), 1);
  int slot = -1;
  {
    api::Simulation sim(tiny_machine(), 3, api::Simulation::Options{.background_load = false});
    slot = sim.observers().slot();
    write_steps(sim, 3);
    EXPECT_EQ(sim.metrics().counter("protocol.runs").value(), 3u);
  }
  const std::string written = obs::numbered_path(path, slot);
  const std::optional<obs::Json> doc = load_json(written);
  ASSERT_TRUE(doc.has_value()) << written;
  const obs::Json* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("protocol.runs"), nullptr);
  EXPECT_EQ(counters->find("protocol.runs")->number(), 3.0);
  std::remove(written.c_str());
}

// An aborted flush captures the metrics tail with one last sampler tick at
// the abort instant, and dumps the flight recorder as a loadable journal.
TEST(ObserverHost, AbortedFlushTicksTheSamplerAndDumpsTheFlightRecorder) {
  const CleanObsEnv env;
  const std::string flight = ::testing::TempDir() + "abort.flight";
  setenv("AIO_FLIGHT", flight.c_str(), 1);
  obs::Observers observers(/*slot=*/0, /*with_metrics=*/true);
  ASSERT_NE(observers.live(), nullptr);
  ASSERT_TRUE(observers.live()->flight_enabled());
  sim::Engine engine(observers.recorder());
  obs::Sampler& sampler = observers.sample_every(1.0);
  sampler.add_probe("clock", [](double now) { return now; });
  observers.attach(engine);
  for (std::uint32_t w = 0; w < 3; ++w)
    observers.recorder()->emit(rec(0.1 * w, obs::Rec::kWriterStart, w));
  engine.schedule_after(2.5, [] {});
  engine.run();
  EXPECT_EQ(sampler.ticks(), 2u);  // t = 1, 2

  EXPECT_TRUE(observers.flush(/*aborted=*/true));
  EXPECT_EQ(sampler.ticks(), 3u);
  EXPECT_DOUBLE_EQ(observers.metrics()->series("clock").samples().back().first, 2.5);
  const std::optional<obs::Journal> dump = obs::Journal::load(flight);
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->records().size(), 3u);
  std::remove(flight.c_str());
}

// The zero-cost default: with no AIO_* variable set, a bench-style host arms
// nothing and hands its engine a null recorder; a host that asks for a
// registry (api::Simulation) still gets one.
TEST(ObserverHost, UnarmedBenchHostHandsTheEngineANullRecorder) {
  const CleanObsEnv env;
  obs::Observers bench_host;
  EXPECT_EQ(bench_host.recorder(), nullptr);
  EXPECT_EQ(bench_host.journal(), nullptr);
  EXPECT_EQ(bench_host.live(), nullptr);
  EXPECT_EQ(bench_host.metrics(), nullptr);
  sim::Engine engine(bench_host.recorder());
  bench_host.attach(engine);
  EXPECT_EQ(engine.recorder(), nullptr);
  EXPECT_EQ(engine.pending(), 0u);  // no daemon scheduled
  EXPECT_TRUE(bench_host.flush(/*aborted=*/false));

  obs::Observers api_host(/*slot=*/-1, /*with_metrics=*/true);
  EXPECT_NE(api_host.recorder(), nullptr);
  EXPECT_NE(api_host.metrics(), nullptr);
}

}  // namespace
