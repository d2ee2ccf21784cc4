// Tests for history-aware target selection (probing + ranking + placement).
#include "core/transports/target_probe.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "core/transports/adaptive_transport.hpp"
#include "fs/filesystem.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

namespace {

using namespace aio;
using core::probe_targets;
using core::rank_targets;

fs::FsConfig test_fs(std::size_t n_osts = 8) {
  fs::FsConfig c;
  c.n_osts = n_osts;
  c.fabric_bw = 0.0;
  c.ost.ingest_bw = 100e6;
  c.ost.disk_bw = 10e6;
  c.ost.cache_bytes = 1e9;
  c.ost.alpha = 0.0;
  c.ost.eff_floor = 0.0;
  return c;
}

TEST(TargetProbe, MeasuresEveryOst) {
  sim::Engine e;
  fs::FileSystem filesystem(e, test_fs(8));
  std::optional<std::vector<double>> seconds;
  probe_targets(filesystem, 1e6, [&](std::vector<double> s) { seconds = std::move(s); });
  e.run();
  ASSERT_TRUE(seconds.has_value());
  ASSERT_EQ(seconds->size(), 8u);
  for (const double s : *seconds) EXPECT_NEAR(s, 0.1, 0.01);  // 1 MB at 10 MB/s
}

TEST(TargetProbe, SlowOstsProbeSlower) {
  sim::Engine e;
  fs::FileSystem filesystem(e, test_fs(8));
  filesystem.ost(2).set_load(0.0, 0.8);
  filesystem.ost(5).set_load(0.0, 0.5);
  std::optional<std::vector<double>> seconds;
  probe_targets(filesystem, 1e6, [&](std::vector<double> s) { seconds = std::move(s); });
  e.run();
  ASSERT_TRUE(seconds.has_value());
  EXPECT_GT((*seconds)[2], 4.0 * (*seconds)[0]);
  EXPECT_GT((*seconds)[5], 1.5 * (*seconds)[0]);
  EXPECT_GT((*seconds)[2], (*seconds)[5]);
}

TEST(TargetProbe, RankPicksFastestInIndexOrder) {
  const std::vector<double> seconds{0.5, 0.1, 0.9, 0.2, 0.3, 0.05};
  const auto best3 = rank_targets(seconds, 3);
  EXPECT_EQ(best3, (std::vector<std::size_t>{1, 3, 5}));
  const auto all = rank_targets(seconds, 6);
  EXPECT_EQ(all.size(), 6u);
  EXPECT_THROW(rank_targets(seconds, 0), std::invalid_argument);
  EXPECT_THROW(rank_targets(seconds, 7), std::invalid_argument);
}

TEST(TargetProbe, InvalidProbeThrows) {
  sim::Engine e;
  fs::FileSystem filesystem(e, test_fs(2));
  EXPECT_THROW(probe_targets(filesystem, 0.0, nullptr), std::invalid_argument);
}

TEST(TargetProbe, AdaptiveTransportHonoursExplicitTargets) {
  sim::Engine e;
  fs::FileSystem filesystem(e, test_fs(8));
  net::Network network(e, {1e-6, 10e9, 8}, 64);
  core::AdaptiveTransport::Config cfg;
  cfg.targets = {1, 3, 5, 7};  // avoid the even-numbered targets entirely
  core::AdaptiveTransport t(filesystem, network, cfg);
  std::optional<core::IoResult> result;
  t.run(core::IoJob::uniform(8, 1e6), [&](core::IoResult r) { result = std::move(r); });
  e.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->output_files.size(), 4u);
  // All data and indices landed on odd OSTs only (the master index lands
  // on OST 0; check data targets).
  for (const std::size_t even : {0u, 2u, 4u, 6u}) {
    if (even == 0) continue;  // OST 0 holds the master index file
    EXPECT_DOUBLE_EQ(filesystem.ost(even).bytes_submitted(), 0.0) << "ost " << even;
  }
  for (const std::size_t odd : {1u, 3u, 5u, 7u})
    EXPECT_GT(filesystem.ost(odd).bytes_submitted(), 0.0) << "ost " << odd;
}

TEST(TargetProbe, HistoryAwarePlacementAvoidsSlowTargets) {
  // End to end: probe, rank, place — the chosen set must exclude the two
  // OSTs under heavy load, and the resulting write must beat naive placement.
  sim::Engine e;
  fs::FileSystem filesystem(e, test_fs(8));
  net::Network network(e, {1e-6, 10e9, 8}, 64);
  filesystem.ost(1).set_load(0.0, 0.85);
  filesystem.ost(4).set_load(0.0, 0.85);

  std::optional<std::vector<double>> probe;
  probe_targets(filesystem, 1e6, [&](std::vector<double> s) { probe = std::move(s); });
  e.run();
  const auto best = rank_targets(*probe, 6);
  EXPECT_EQ(std::count(best.begin(), best.end(), 1u), 0);
  EXPECT_EQ(std::count(best.begin(), best.end(), 4u), 0);

  auto run_with = [&](std::vector<std::size_t> targets, std::size_t n_files) {
    core::AdaptiveTransport::Config cfg;
    cfg.targets = std::move(targets);
    cfg.n_files = n_files;
    core::AdaptiveTransport t(filesystem, network, cfg);
    std::optional<core::IoResult> result;
    t.run(core::IoJob::uniform(12, 4e6), [&](core::IoResult r) { result = std::move(r); });
    e.run();
    return result->io_seconds();
  };
  const double naive = run_with({0, 1, 2, 3, 4, 5}, 0);  // includes both slow OSTs
  const double informed = run_with(best, 0);
  EXPECT_LT(informed, 0.8 * naive);
}

}  // namespace
