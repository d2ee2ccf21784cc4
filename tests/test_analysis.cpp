// Tests for the run journal and its post-run analyzer: the golden 2-OST
// attribution scenario (one externally loaded target), the external-load
// integral over a multi-run OST timeline, binary round-trip,
// steal provenance, exact agreement between the report's run_time statistics
// and stats::Summary over IoResult::io_seconds(), and the report differ that
// gates CI.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/transports/adaptive_transport.hpp"
#include "fs/filesystem.hpp"
#include "fs/ost.hpp"
#include "net/network.hpp"
#include "obs/analysis.hpp"
#include "obs/journal.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "stats/summary.hpp"

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

/// The golden scenario: two storage targets, target 1 carrying heavy
/// external load, eight writers in two groups.  Group 1's home OST drags,
/// so its writers wait on external interference and group 0 steals into
/// its file once done with its own.
struct TwoOstRig {
  obs::Journal journal{{/*path=*/"", /*max_records=*/1u << 20}};
  obs::Recorder recorder{&journal};
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

  TwoOstRig()
      : filesystem(engine, fs_config()),
        network(engine, net::NetConfig{1e-6, 10e9, 8}, 64),
        transport(filesystem, network,
                  [] {
                    core::AdaptiveTransport::Config ac;
                    ac.n_files = 2;
                    // Real MDS opens (not the default Skip), so the report
                    // has a metadata phase to attribute.
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

// --- golden attribution ------------------------------------------------------

TEST(Analysis, GoldenTwoOstAttribution) {
  TwoOstRig rig;
  const core::IoResult result = rig.run();

  const obs::Json report = obs::analyze(rig.journal);
  EXPECT_EQ(report.find("schema")->str(), "aio-report-v1");
  ASSERT_NE(report.find("runs"), nullptr);
  ASSERT_EQ(report.find("runs")->size(), 1u);
  // run_time_s is t_complete - t_open_done — the same interval io_seconds()
  // reports, from the same event timestamps.
  EXPECT_DOUBLE_EQ(num_at(report.find("runs")->at(0), {"run_time_s"}),
                   result.io_seconds());
  EXPECT_EQ(num_at(report, {"summary", "writers"}), 8.0);

  // The wait partition is exhaustive by construction: everything a writer
  // waited is attributed to mds/internal/external/network.
  EXPECT_GT(num_at(report, {"summary", "attribution", "total_wait_s"}), 0.0);
  EXPECT_GE(num_at(report, {"summary", "attribution", "attributed_frac"}), 0.95);
  EXPECT_GT(num_at(report, {"summary", "attribution", "external_s"}), 0.0);
  EXPECT_GT(num_at(report, {"summary", "attribution", "mds_s"}), 0.0);

  // External interference lands on the loaded target's writers, not ost0's.
  const double ext0 = num_at(report, {"summary", "osts", "ost0", "wait_external_s"});
  const double ext1 = num_at(report, {"summary", "osts", "ost1", "wait_external_s"});
  EXPECT_GT(ext1, ext0);

  // Steal provenance: every completed steal chain is priced, and the count
  // agrees with the protocol's own accounting.
  EXPECT_GT(result.steals, 0u);
  EXPECT_EQ(num_at(report, {"summary", "steal_savings", "completed"}),
            static_cast<double>(result.steals));
  const obs::Json* per_source =
      report.find("summary")->find("steal_savings")->find("per_source");
  ASSERT_NE(per_source, nullptr);
  EXPECT_GT(per_source->size(), 0u);
}

// --- external-load integral --------------------------------------------------

TEST(Analysis, ExternalWaitIntegratesFromTheSegmentHoldingAtOpen) {
  // Hand-written journal: two one-writer runs on one OST whose load timeline
  // has segments before run 1, between the runs, one straddling run 2's
  // t_open, and one after run 2's write signal.  The integral over run 2's
  // queue interval must start at the straddling segment.
  obs::Journal journal({/*path=*/"", /*max_records=*/64});
  const auto append = [&](obs::Rec kind, double t, double v0 = 0.0, std::uint8_t a = 0) {
    obs::Record r;
    r.kind = kind;
    r.t = t;
    r.v0 = v0;
    r.a = a;
    journal.append(r);
  };
  const auto mark = [&](obs::Mark m, double t) {
    append(obs::Rec::kRunMark, t, 0.0, static_cast<std::uint8_t>(m));
  };
  const auto load = [&](double t, double ext) {
    obs::Record r;
    r.kind = obs::Rec::kOstState;  // OST 0
    r.t = t;
    r.v1 = ext;  // net_load; the analyzer takes max(net, disk)
    journal.append(r);
  };
  // A one-writer run, in pieces so load changes can land inside it.
  const auto open_run = [&](double t_begin, double t_open) {
    obs::Record b;
    b.kind = obs::Rec::kRunBegin;
    b.t = t_begin;
    b.id = journal.begin_run();
    b.u0 = 1;  // writers
    b.u1 = 1;  // files
    b.u2 = 1;  // osts
    journal.append(b);
    append(obs::Rec::kFileMap, t_begin);  // file 0 on OST 0
    mark(obs::Mark::kOpenDone, t_open);
  };
  const auto signal = [&](double t) {
    append(obs::Rec::kWriterSignal, t);  // writer 0, file 0, group 0
  };
  const auto write_and_close = [&](double start, double end, double complete) {
    append(obs::Rec::kWriterStart, start, /*bytes=*/1e6);
    append(obs::Rec::kWriterEnd, end);
    mark(obs::Mark::kDataDone, end);
    mark(obs::Mark::kComplete, complete);
  };
  // Records in time order, as an engine emits them.
  load(0.0, 0.125);  // before run 1
  open_run(1.0, 2.0);
  signal(3.0);  // queue [2, 3] at 0.125
  write_and_close(3.5, 4.0, 4.5);
  load(6.0, 0.375);   // between the runs
  load(11.0, 0.5);    // straddles run 2's t_open
  open_run(11.5, 12.0);
  load(14.0, 0.25);
  signal(16.0);       // queue [12, 16]
  load(16.25, 0.75);  // after the signal: outside the queue interval
  write_and_close(16.5, 17.0, 17.5);
  ASSERT_EQ(journal.dropped(), 0u);

  const obs::Json report = obs::analyze(journal);
  ASSERT_EQ(report.find("runs")->size(), 2u);
  // Run 2's queue wait: 2 s at 0.5 on the straddling segment, then 2 s at
  // 0.25.  Starting one segment late would drop the first piece.
  const double run1_ext = 1.0 * 0.125;
  const double run2_ext = 2.0 * 0.5 + 2.0 * 0.25;
  EXPECT_DOUBLE_EQ(num_at(report, {"summary", "attribution", "external_s"}),
                   run1_ext + run2_ext);
  EXPECT_DOUBLE_EQ(num_at(report, {"summary", "osts", "ost0", "wait_external_s"}),
                   run1_ext + run2_ext);
  // Run 2's critical path adds the service interval [16.5, 17] at 0.75.
  const obs::Json& cp = *report.find("runs")->at(1).find("critical_path");
  EXPECT_DOUBLE_EQ(num_at(cp, {"totals", "external_s"}), run2_ext + 0.5 * 0.75);
}

// --- binary round-trip -------------------------------------------------------

TEST(Analysis, JournalRoundTripsThroughDisk) {
  TwoOstRig rig;
  (void)rig.run();
  ASSERT_GT(rig.journal.records().size(), 0u);
  ASSERT_EQ(rig.journal.dropped(), 0u);

  const std::string path = testing::TempDir() + "aio_journal_roundtrip.bin";
  ASSERT_TRUE(rig.journal.write(path));
  const std::optional<obs::Journal> back = obs::Journal::load(path);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->records().size(), rig.journal.records().size());
  EXPECT_EQ(back->runs(), rig.journal.runs());
  EXPECT_EQ(std::memcmp(back->records().data(), rig.journal.records().data(),
                        rig.journal.records().size() * sizeof(obs::Record)),
            0);
  // The derived report is identical whether analyzed live or from disk.
  EXPECT_EQ(obs::analyze(*back).dump(), obs::analyze(rig.journal).dump());
  std::remove(path.c_str());
}

TEST(Analysis, JournalLoadRejectsGarbage) {
  const std::string path = testing::TempDir() + "aio_journal_garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a journal", f);
  std::fclose(f);
  EXPECT_FALSE(obs::Journal::load(path).has_value());
  EXPECT_FALSE(obs::Journal::load(path + ".missing").has_value());
  std::remove(path.c_str());
}

// --- exact agreement with bench statistics -----------------------------------

TEST(Analysis, RunTimeStatsMatchSummaryOfIoSeconds) {
  TwoOstRig rig;
  stats::Summary expected;
  // Three runs under different external load: nonzero variance, and the
  // journal accumulates one kRunBegin..kComplete span per run.
  for (const double load : {0.8, 0.2, 0.5}) {
    rig.filesystem.ost(1).set_load(load, load);
    expected.add(rig.run().io_seconds());
  }
  const obs::Json report = obs::analyze(rig.journal);
  ASSERT_EQ(report.find("runs")->size(), 3u);
  EXPECT_EQ(num_at(report, {"summary", "run_time", "count"}), 3.0);
  EXPECT_DOUBLE_EQ(num_at(report, {"summary", "run_time", "mean"}), expected.mean());
  EXPECT_DOUBLE_EQ(num_at(report, {"summary", "run_time", "stddev"}), expected.stddev());
  EXPECT_DOUBLE_EQ(num_at(report, {"summary", "run_time", "cov"}), expected.cv());
  EXPECT_GT(expected.cv(), 0.0);
}

// --- renderers ---------------------------------------------------------------

TEST(Analysis, SummaryAndHtmlRenderTheReport) {
  TwoOstRig rig;
  (void)rig.run();
  const obs::Json report = obs::analyze(rig.journal);

  const std::string text = obs::report_summary(report);
  EXPECT_NE(text.find("aio-report:"), std::string::npos);
  EXPECT_NE(text.find("run_time"), std::string::npos);
  EXPECT_NE(text.find("external"), std::string::npos);

  const std::string html = obs::report_html(report);
  EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
  EXPECT_NE(html.find("Wait attribution"), std::string::npos);
  // The embedded raw document must still be valid JSON.
  const std::size_t open = html.find("id=\"aio-report\">");
  ASSERT_NE(open, std::string::npos);
  const std::size_t close = html.find("</script>", open);
  ASSERT_NE(close, std::string::npos);
  const std::string embedded =
      html.substr(open + std::strlen("id=\"aio-report\">"),
                  close - open - std::strlen("id=\"aio-report\">"));
  EXPECT_TRUE(obs::Json::parse(embedded).has_value());

  // An empty journal renders an empty summary, not a crash.
  const obs::Journal empty{{/*path=*/"", /*max_records=*/16}};
  EXPECT_TRUE(obs::report_summary(obs::analyze(empty)).empty());
}

// --- report differ (the CI gate) ---------------------------------------------

TEST(Analysis, DiffAcceptsSelfAndFlagsCovRegression) {
  TwoOstRig rig;
  for (const double load : {0.8, 0.2, 0.5}) {
    rig.filesystem.ost(1).set_load(load, load);
    (void)rig.run();
  }
  const obs::Json base = obs::analyze(rig.journal);

  // A report agrees with itself (and with its parse round-trip).
  const std::optional<obs::Json> same = obs::Json::parse(base.dump());
  ASSERT_TRUE(same.has_value());
  EXPECT_TRUE(obs::diff_reports(base, *same).empty());

  // Inject the regression CI must catch: run-to-run variability doubling.
  const double cov = num_at(base, {"summary", "run_time", "cov"});
  ASSERT_GT(cov, 1e-9);
  obs::Json cur = *same;
  obs::Json summary = *cur.find("summary");
  obs::Json run_time = *summary.find("run_time");
  run_time.set("cov", obs::Json(cov * 2.0));
  summary.set("run_time", std::move(run_time));
  cur.set("summary", std::move(summary));
  const std::vector<std::string> violations = obs::diff_reports(base, cur);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("summary.run_time.cov"), std::string::npos);

  // Shape drift is a violation too, tolerances notwithstanding.
  obs::Json reshaped = *same;
  reshaped.set("schema", "aio-report-v2");
  EXPECT_FALSE(obs::diff_reports(base, reshaped).empty());

  // Ignored detail tables (per-OST, stragglers, steal sources) may drift
  // freely under the default options.
  obs::Json detail = *same;
  obs::Json s2 = *detail.find("summary");
  s2.set("osts", obs::Json::object());
  s2.set("stragglers", obs::Json::array());
  detail.set("summary", std::move(s2));
  EXPECT_TRUE(obs::diff_reports(base, detail).empty());
}

}  // namespace
