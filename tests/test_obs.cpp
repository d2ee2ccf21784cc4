// Tests for the observability layer: JSON round-trips, counter/gauge/series
// semantics, trace span bookkeeping, sampler accuracy against a hand-solved
// OST drain, and the protocol instrumentation agreeing with IoResult.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <sstream>
#include <vector>

#include "core/transports/adaptive_transport.hpp"
#include "fs/filesystem.hpp"
#include "fs/ost.hpp"
#include "net/network.hpp"
#include "obs/journal.hpp"
#include "obs/json.hpp"
#include "obs/live.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/trace.hpp"
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

  const std::vector<obs::Record> merged = obs::merge_records({&a, &b});
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

  const std::vector<obs::Record> base = obs::merge_records({&one});
  const std::vector<obs::Record> split = obs::merge_records({&two_a, &two_b, &empty, nullptr});
  ASSERT_EQ(base.size(), all.size());
  ASSERT_EQ(split.size(), all.size());
  EXPECT_EQ(std::memcmp(base.data(), split.data(), base.size() * sizeof(obs::Record)), 0);
  // And the profiler record still trails its same-time simulated peers.
  EXPECT_EQ(base[4].kind, obs::Rec::kProfShard);
}

// --- TraceSink ---------------------------------------------------------------

TEST(TraceSink, SpansNestAndRoundTripAsChromeTrace) {
  obs::TraceSink sink({/*path=*/"", obs::kCatAll, /*max_events=*/1000});
  sink.begin(obs::kCatProtocol, obs::kPidProtocol, 7, 1.0, "outer",
             {{"file", obs::Json(3.0)}});
  sink.begin(obs::kCatProtocol, obs::kPidProtocol, 7, 1.5, "inner");
  sink.end(obs::kCatProtocol, obs::kPidProtocol, 7, 2.0);
  sink.end(obs::kCatProtocol, obs::kPidProtocol, 7, 3.0);
  sink.instant(obs::kCatProtocol, obs::kPidProtocol, 7, 2.5, "mark");
  sink.counter(obs::kCatStorage, obs::kPidStorage, 2.75, "depth", 4.0);

  EXPECT_EQ(sink.count('B'), 2u);
  EXPECT_EQ(sink.count('E'), 2u);
  EXPECT_EQ(sink.count('i', "mark"), 1u);
  EXPECT_EQ(sink.count('C', "depth"), 1u);

  std::ostringstream out;
  sink.write(out);
  const std::optional<obs::Json> doc = obs::Json::parse(out.str());
  ASSERT_TRUE(doc.has_value()) << out.str();
  const obs::Json* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 6 recorded events + the 5 pre-named process-metadata records.
  EXPECT_EQ(events->size(), 6u + 5u);
  // Timestamps are simulated seconds in microseconds.
  bool saw_outer = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::Json& e = events->at(i);
    if (const obs::Json* name = e.find("name"); name && name->dump() == "\"outer\"") {
      saw_outer = true;
      EXPECT_EQ(e.find("ts")->dump(), "1000000");
      EXPECT_EQ(e.find("pid")->dump(), "2");
      EXPECT_EQ(e.find("tid")->dump(), "7");
    }
  }
  EXPECT_TRUE(saw_outer);
}

TEST(TraceSink, FiltersCategoriesAndCountsDrops) {
  obs::TraceSink sink({/*path=*/"", obs::kCatProtocol, /*max_events=*/3});
  EXPECT_TRUE(sink.wants(obs::kCatProtocol));
  EXPECT_FALSE(sink.wants(obs::kCatStorage));
  sink.instant(obs::kCatStorage, obs::kPidStorage, 0, 0.0, "ignored");
  EXPECT_EQ(sink.events(), 0u);  // wrong category records nothing
  for (int i = 0; i < 5; ++i)
    sink.instant(obs::kCatProtocol, obs::kPidProtocol, 0, static_cast<double>(i), "m");
  EXPECT_EQ(sink.events(), 3u);
  EXPECT_EQ(sink.dropped(), 2u);

  // The written document carries the loss metadata, so a truncated trace is
  // never mistaken for a complete one.
  std::ostringstream out;
  sink.write(out);
  const std::optional<obs::Json> doc = obs::Json::parse(out.str());
  ASSERT_TRUE(doc.has_value());
  const obs::Json* other = doc->find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_DOUBLE_EQ(other->find("dropped")->number(), 2.0);
  EXPECT_DOUBLE_EQ(other->find("events")->number(), 3.0);
  EXPECT_DOUBLE_EQ(other->find("categories")->number(),
                   static_cast<double>(obs::kCatProtocol));

  // publish_drops mirrors the count into the registry exactly once per drop,
  // however many times a flush path calls it.
  obs::Registry reg;
  sink.publish_drops(reg);
  sink.publish_drops(reg);
  EXPECT_EQ(reg.counter("obs.trace.dropped").value(), 2u);
  sink.instant(obs::kCatProtocol, obs::kPidProtocol, 0, 9.0, "m");  // drops a 3rd
  sink.publish_drops(reg);
  EXPECT_EQ(reg.counter("obs.trace.dropped").value(), 3u);
}

TEST(TraceSink, DefaultCategoriesExcludeEngineDispatch) {
  obs::TraceSink sink({/*path=*/"", obs::kCatDefault, /*max_events=*/1000});
  obs::Registry reg;
  sim::Engine engine(&sink, &reg);
  engine.schedule_at(1.0, [] {});
  engine.run();
  EXPECT_EQ(sink.count('i', "dispatch"), 0u);

  obs::TraceSink all({/*path=*/"", obs::kCatAll, /*max_events=*/1000});
  sim::Engine loud(&all, &reg);
  loud.schedule_at(1.0, [] {});
  loud.run();
  EXPECT_EQ(all.count('i', "dispatch"), 1u);
}

// --- Sampler vs hand-computed OST drain --------------------------------------

// A 1000 B durable write into an OST with ingest 1000 B/s, disk 100 B/s and a
// roomy cache: occupancy rises at the net 900 B/s until ingest completes at
// t=1 (occupancy 900), then drains at 100 B/s, empty (and done) at t=10.
TEST(Sampler, PerOstSeriesMatchesFluidModel) {
  obs::Registry reg;
  sim::Engine engine(nullptr, &reg);
  fs::Ost::Config cfg;
  cfg.ingest_bw = 1000.0;
  cfg.disk_bw = 100.0;
  cfg.cache_bytes = 1e6;
  cfg.per_stream_cap = 0.0;
  cfg.alpha = 0.0;
  cfg.eff_floor = 0.0;
  cfg.op_latency_s = 0.0;
  fs::Ost ost(engine, cfg);

  obs::Sampler sampler(reg, nullptr, /*period_s=*/0.5);
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

TEST(ProtocolTrace, StealInstantsMatchIoResult) {
  obs::TraceSink sink({/*path=*/"", obs::kCatDefault, /*max_events=*/200000});
  obs::Registry reg;
  sim::Engine engine(&sink, &reg);

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

  // Load one target heavily so its group falls behind and gets stolen from.
  filesystem.ost(0).set_load(0.8, 0.8);

  core::AdaptiveTransport::Config ac;
  ac.n_files = 4;
  core::AdaptiveTransport transport(filesystem, network, ac);
  std::optional<core::IoResult> result;
  transport.run(core::IoJob::uniform(16, 8e6), [&](core::IoResult r) { result = std::move(r); });
  engine.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->steals, 0u);

  // Every steal completion leaves exactly one instant; every writer opens
  // exactly one data-write span (stolen or not), and all spans close.
  EXPECT_EQ(sink.count('i', "steal.complete"), result->steals);
  EXPECT_EQ(sink.count('B', "write"), 16u);
  EXPECT_EQ(sink.count('B'), sink.count('E'));
  EXPECT_EQ(reg.counter("protocol.steals").value(), result->steals);
  EXPECT_EQ(reg.counter("protocol.runs").value(), 1u);
  EXPECT_GE(reg.counter("protocol.steal_grants").value(), result->steals);
}

// --- observers never perturb the simulation ---------------------------------

/// Three collectives on a 4-OST rig (Storm opens, two loaded targets, steals
/// with a real choice of source) under shifting external load, with every
/// observer attached or none.
std::vector<core::IoResult> observed_runs(bool observers) {
  obs::TraceSink trace({/*path=*/"", obs::kCatAll, /*max_events=*/1u << 20});
  obs::Registry metrics;
  obs::Journal journal{{/*path=*/"", /*max_records=*/1u << 20}};
  obs::LivePlane live{obs::LivePlane::Config{}};
  sim::Engine engine = observers ? sim::Engine{&trace, &metrics, &journal, &live} : sim::Engine{};
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
    EXPECT_GT(trace.count('B', "write"), 0u);
    EXPECT_EQ(metrics.counter("protocol.runs").value(), 3u);
  }
  return out;
}

// No simulated decision reads an observer: a run with journal, live plane,
// metrics registry and trace sink attached is bit-identical to a bare one.
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

}  // namespace
