// Sharded-engine determinism: the documented contract is that for a fixed
// configuration and job, simulated timestamps, results, and the canonically
// merged journal are bit-identical at every shard count.  This file sweeps
// shard counts 1/2/4/8 over seeded jobs and compares FNV digests of the
// merged records plus every IoResult field bit-for-bit, and proves the
// negative: a deliberately misordered cross-shard merge is rejected.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "core/transports/sharded.hpp"
#include "obs/journal.hpp"
#include "sim/shard.hpp"

namespace {

using aio::core::IoJob;
using aio::core::IoResult;
using aio::core::ShardedAdaptiveSim;

constexpr std::size_t kWriters = 192;
constexpr std::size_t kOsts = 16;

// Seeded job: uneven payloads (a few heavy writers per group) so the run
// exercises stealing, cache pressure, and cross-group traffic.
IoJob seeded_job(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(0.5, 2.0);
  IoJob job;
  job.bytes_per_writer.resize(kWriters);
  for (std::size_t i = 0; i < kWriters; ++i) {
    double b = 256.0 * 1024.0 * jitter(rng);
    if (i % 37 == 0) b *= 4.0;  // stragglers: force steals
    job.bytes_per_writer[i] = b;
  }
  return job;
}

// Sparse jobs: workloads whose event timeline is mostly empty, so the
// window loop spends its time hopping over idle windows rather than
// executing them.  These are the adversarial shapes for the idle-window
// skip: a wrong global-minimum reduction (e.g. one that misses a pending
// in-flight channel message) would either deadlock or silently reorder a
// delivery, and both break the digests below.
//
// "Metadata storm": every payload is a fraction of one block, so the run
// is per-op latency gaps (0.5 ms >> the 512 us default window) separated
// by almost no data movement.
IoJob metadata_storm_job(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(0.5, 2.0);
  IoJob job;
  job.bytes_per_writer.resize(kWriters);
  for (std::size_t i = 0; i < kWriters; ++i)
    job.bytes_per_writer[i] = 2048.0 * jitter(rng);
  return job;
}

// "Long-tail drain": one writer carries ~64x the median payload, so after
// the bulk finishes the sim idles through a long single-writer tail where
// nearly every shard has nothing scheduled.
IoJob long_tail_job(std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> jitter(0.5, 2.0);
  IoJob job;
  job.bytes_per_writer.resize(kWriters);
  for (std::size_t i = 0; i < kWriters; ++i)
    job.bytes_per_writer[i] = 64.0 * 1024.0 * jitter(rng);
  job.bytes_per_writer[kWriters / 2] = 4.0 * 1024.0 * 1024.0;
  return job;
}

ShardedAdaptiveSim::Config rig_config(std::size_t n_shards) {
  ShardedAdaptiveSim::Config c;
  c.n_shards = n_shards;
  c.n_ranks = kWriters;
  c.fs.n_osts = kOsts;
  c.fs.ost.disk_bw = 200e6;
  c.fs.ost.cache_bytes = 8e6;  // small cache: dirty-stream churn
  c.fs.ost.ingest_bw = 500e6;
  c.fs.ost.alpha = 0.05;
  c.fs.ost.op_latency_s = 0.0005;
  c.fs.fabric_bw = 3e9;  // < n_osts * ingest: the governor stays busy
  c.net.latency_s = 8e-6;
  c.net.nic_bw = 2e9;
  c.net.cores_per_node = 4;
  c.adaptive.n_files = 0;  // one file (group) per OST
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

struct RunOutcome {
  IoResult result;
  std::uint64_t journal_digest = 0;
  std::size_t n_records = 0;
  std::uint64_t windows_executed = 0;
  std::uint64_t windows_skipped = 0;
};

RunOutcome run_job(ShardedAdaptiveSim::Config cfg, const IoJob& job) {
  ShardedAdaptiveSim sim(std::move(cfg));
  RunOutcome out;
  out.result = sim.run(job);
  const auto records = sim.merged_records();
  out.n_records = records.size();
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& r : records) h = fnv1a(&r, sizeof(r), h);
  out.journal_digest = h;
  out.windows_executed = sim.shards().windows_executed();
  out.windows_skipped = sim.shards().windows_skipped();
  return out;
}

RunOutcome run_at(std::size_t n_shards, std::uint32_t seed) {
  return run_job(rig_config(n_shards), seeded_job(seed));
}

// Field-by-field bit-identity between two outcomes (EXPECT_EQ on doubles is
// exact equality, which is the point).
void expect_identical_results(const IoResult& base, const IoResult& other, const char* what) {
  EXPECT_EQ(base.t_begin, other.t_begin) << what;
  EXPECT_EQ(base.t_open_done, other.t_open_done) << what;
  EXPECT_EQ(base.t_data_done, other.t_data_done) << what;
  EXPECT_EQ(base.t_complete, other.t_complete) << what;
  EXPECT_EQ(base.steals, other.steals) << what;
  EXPECT_EQ(base.grants_issued, other.grants_issued) << what;
  EXPECT_EQ(base.total_blocks_indexed, other.total_blocks_indexed) << what;
  ASSERT_EQ(base.writer_times.size(), other.writer_times.size()) << what;
  std::uint64_t wt_base = 14695981039346656037ull;
  std::uint64_t wt_other = 14695981039346656037ull;
  for (std::size_t i = 0; i < base.writer_times.size(); ++i) {
    wt_base = fnv1a(&base.writer_times[i], sizeof(aio::core::WriterTiming), wt_base);
    wt_other = fnv1a(&other.writer_times[i], sizeof(aio::core::WriterTiming), wt_other);
  }
  EXPECT_EQ(wt_base, wt_other) << "writer timing digest diverged: " << what;
}

void expect_identical(const RunOutcome& base, const RunOutcome& other, const char* what) {
  expect_identical_results(base.result, other.result, what);
  EXPECT_EQ(base.n_records, other.n_records) << what;
  EXPECT_EQ(base.journal_digest, other.journal_digest) << what;
}

class ShardDeterminism : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardDeterminism, BitIdenticalAcrossShardCounts) {
  const std::uint32_t seed = GetParam();
  const RunOutcome base = run_at(1, seed);
  ASSERT_GT(base.n_records, 0u);
  ASSERT_GT(base.result.io_seconds(), 0.0);
  for (const std::size_t s : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const RunOutcome other = run_at(s, seed);
    // Bit-identical simulated timestamps: every IoResult time field must
    // match exactly, not within a tolerance, and the canonical journal merge
    // must not depend on how records were distributed over shards.
    expect_identical(base, other, (testing::Message() << "shards=" << s).GetString().c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDeterminism,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// Sparse workloads stress the idle-window skip: the timeline has long empty
// stretches, so a shard-count-dependent skip decision (or a delivery missed
// by the horizon reduction) would show up as a digest mismatch or a hang.
// The telemetry assertion pins that the skip path actually ran — if a future
// change quietly disables skipping, this fails rather than just getting slow.
// The rig runs at window_batch=8 (64 us windows): the dominant idle stretch
// here is the 0.5 ms op latency, which spans ~7 windows at that size but
// fits inside one 512 us default window.
ShardedAdaptiveSim::Config sparse_rig_config(std::size_t n_shards) {
  auto c = rig_config(n_shards);
  c.window_batch = 8.0;
  return c;
}

class ShardSparseDeterminism : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardSparseDeterminism, MetadataStormSkipsIdleWindows) {
  const IoJob job = metadata_storm_job(GetParam());
  const RunOutcome base = run_job(sparse_rig_config(1), job);
  ASSERT_GT(base.n_records, 0u);
  EXPECT_GT(base.windows_skipped, 0u) << "sparse run executed every window: skip path inert";
  for (const std::size_t s : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const RunOutcome other = run_job(sparse_rig_config(s), job);
    expect_identical(base, other, (testing::Message() << "shards=" << s).GetString().c_str());
    EXPECT_GT(other.windows_skipped, 0u) << "shards=" << s;
  }
}

TEST_P(ShardSparseDeterminism, LongTailDrainSkipsIdleWindows) {
  const IoJob job = long_tail_job(GetParam());
  const RunOutcome base = run_job(sparse_rig_config(1), job);
  ASSERT_GT(base.n_records, 0u);
  EXPECT_GT(base.windows_skipped, 0u) << "sparse run executed every window: skip path inert";
  for (const std::size_t s : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const RunOutcome other = run_job(sparse_rig_config(s), job);
    expect_identical(base, other, (testing::Message() << "shards=" << s).GetString().c_str());
    EXPECT_GT(other.windows_skipped, 0u) << "shards=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardSparseDeterminism, ::testing::Values(11u, 23u));

// Determinism across the *domain* grid: couplings are quantized by physical
// boundary (node / storage atom), not by domain membership, so re-cutting
// the domain grid — which changes shard ownership, channel routing, and
// message batching — must not move a single timestamp.  This is the
// property that lets AIO_SIM_DOMAINS be a pure load-balancing knob.
TEST(ShardDomainInvariance, DigestsInvariantUnderDomainGrid) {
  const IoJob job = seeded_job(5);
  auto cfg = rig_config(4);
  const RunOutcome base = run_job(cfg, job);
  ASSERT_GT(base.n_records, 0u);
  for (const std::size_t d : {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{16}}) {
    auto c = cfg;
    c.n_domains = d;
    const RunOutcome other = run_job(c, job);
    expect_identical(base, other, (testing::Message() << "domains=" << d).GetString().c_str());
  }
}

// Multi-MDS tier determinism: with a 4-wide metadata tier the servers are
// homed on different shards (one per domain span), so open/close requests
// and completions cross the channel plane in both directions.  Because every
// rank<->MDS coupling quantizes at a window boundary regardless of placement,
// the digests must stay bit-identical at every shard count — same property,
// same exactness, as the single-MDS sweep above.
TEST(ShardMultiMds, DigestsBitIdenticalAcrossShardCounts) {
  const IoJob job = seeded_job(7);
  auto cfg = rig_config(1);
  cfg.fs.n_mds = 4;
  const RunOutcome base = run_job(cfg, job);
  ASSERT_GT(base.n_records, 0u);
  for (const std::size_t s : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    auto c = rig_config(s);
    c.fs.n_mds = 4;
    const RunOutcome other = run_job(c, job);
    expect_identical(base, other,
                     (testing::Message() << "n_mds=4 shards=" << s).GetString().c_str());
  }
}

// And the domain grid stays a pure load-balancing knob with a tier: re-cutting
// the grid moves MDS homes between shards but no timestamps.
TEST(ShardMultiMds, DigestsInvariantUnderDomainGridWithTier) {
  const IoJob job = seeded_job(5);
  auto cfg = rig_config(4);
  cfg.fs.n_mds = 4;
  const RunOutcome base = run_job(cfg, job);
  ASSERT_GT(base.n_records, 0u);
  for (const std::size_t d : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    auto c = cfg;
    c.n_domains = d;
    const RunOutcome other = run_job(c, job);
    expect_identical(base, other,
                     (testing::Message() << "n_mds=4 domains=" << d).GetString().c_str());
  }
}

TEST(ShardDeterminismNegative, MisorderedMergeIsRejected) {
  ShardedAdaptiveSim sim(rig_config(2));
  ASSERT_EQ(sim.shards().n_shards(), 2u);
  sim.shards().corrupt_next_merge_for_test();
  EXPECT_THROW(sim.run(seeded_job(1)), std::logic_error);
}

TEST(ShardPlan, DomainGridIsShardCountInvariant) {
  // The domain maps must not depend on n_shards — that is the root of the
  // determinism argument — and shard spans must be contiguous and balanced.
  aio::sim::ShardGroup::Config c;
  c.n_ranks = 223;
  c.ranks_per_node = 4;
  c.n_osts = 29;
  c.n_shards = 1;
  aio::sim::ShardGroup one(c);
  c.n_shards = 8;
  aio::sim::ShardGroup eight(c);
  ASSERT_EQ(one.n_domains(), eight.n_domains());
  for (std::size_t r = 0; r < c.n_ranks; ++r)
    ASSERT_EQ(one.domain_of_rank(r), eight.domain_of_rank(r)) << "rank " << r;
  for (std::size_t o = 0; o < c.n_osts; ++o)
    ASSERT_EQ(one.domain_of_ost(o), eight.domain_of_ost(o)) << "ost " << o;
  // Node alignment: all ranks of one node share a domain.
  for (std::size_t r = 0; r + 1 < c.n_ranks; ++r) {
    if (r / c.ranks_per_node == (r + 1) / c.ranks_per_node) {
      ASSERT_EQ(eight.domain_of_rank(r), eight.domain_of_rank(r + 1)) << "rank " << r;
    }
  }
  // Shard spans: contiguous, non-decreasing, every shard owns >= 1 domain.
  std::vector<std::size_t> owners;
  for (std::uint32_t d = 0; d < eight.n_domains(); ++d)
    owners.push_back(eight.shard_of_domain(d));
  for (std::size_t i = 1; i < owners.size(); ++i) {
    ASSERT_GE(owners[i], owners[i - 1]);
    ASSERT_LE(owners[i] - owners[i - 1], 1u);
  }
  ASSERT_EQ(owners.front(), 0u);
  ASSERT_EQ(owners.back(), eight.n_shards() - 1);
}

TEST(ShardPlan, ShardCountClampsToDomains) {
  aio::sim::ShardGroup::Config c;
  c.n_ranks = 16;
  c.n_osts = 3;  // 3 domains max
  c.n_shards = 8;
  aio::sim::ShardGroup g(c);
  EXPECT_EQ(g.n_domains(), 3u);
  EXPECT_EQ(g.n_shards(), 3u);
}

TEST(ShardPlan, WindowBatchOutsideRangeIsRejected) {
  // Window ends of 1e12 lookaheads and beyond are so large that one ulp of
  // simulated time exceeds the fluid model's step: the run would spin
  // without advancing.  The group refuses them (and non-finite or sub-1
  // values) at construction.
  aio::sim::ShardGroup::Config c;
  c.n_ranks = 16;
  c.n_osts = 4;
  for (const double bad : {std::numeric_limits<double>::infinity(), 1e12,
                           std::numeric_limits<double>::quiet_NaN(), 0.5,
                           aio::sim::ShardGroup::kMaxWindowBatch * 2.0}) {
    c.window_batch = bad;
    EXPECT_THROW(aio::sim::ShardGroup g(c), std::invalid_argument) << bad;
  }
  for (const double ok : {1.0, 64.0, aio::sim::ShardGroup::kMaxWindowBatch}) {
    c.window_batch = ok;
    EXPECT_NO_THROW(aio::sim::ShardGroup g(c)) << ok;
  }
}

TEST(ShardedRun, WindowBatchAtTheCeilingRunsToCompletion) {
  // The largest accepted window still advances simulated time: the run
  // drains, conserves every byte, and stays bit-identical across shard
  // counts.
  const IoJob job = seeded_job(3);
  double bytes = 0.0;
  for (const double b : job.bytes_per_writer) bytes += b;
  auto at_ceiling = [](std::size_t n_shards) {
    auto c = rig_config(n_shards);
    c.window_batch = aio::sim::ShardGroup::kMaxWindowBatch;
    return c;
  };
  const RunOutcome base = run_job(at_ceiling(1), job);
  EXPECT_GT(base.result.io_seconds(), 0.0);
  EXPECT_EQ(base.result.writer_times.size(), kWriters);
  EXPECT_NEAR(base.result.total_bytes, bytes, 1e-6 * bytes);
  expect_identical(base, run_job(at_ceiling(2), job), "shards=2 at the window ceiling");
}

TEST(ShardedRun, JournalDoesNotPerturbTheRun) {
  // Attaching the per-shard journals is pure observation: every simulated
  // timestamp matches a run without them, bit for bit.
  for (const std::size_t s : {std::size_t{1}, std::size_t{4}}) {
    auto bare = rig_config(s);
    bare.collect_journal = false;
    const RunOutcome plain = run_job(bare, seeded_job(5));
    const RunOutcome journaled = run_job(rig_config(s), seeded_job(5));
    EXPECT_EQ(plain.n_records, 0u);
    EXPECT_GT(journaled.n_records, 0u);
    expect_identical_results(plain.result, journaled.result,
                             (testing::Message() << "shards=" << s).GetString().c_str());
  }
}

TEST(ShardedRun, ConvergesToClassicModelAsWindowShrinks) {
  // The sharded timing model quantizes every node- or OST-crossing coupling
  // to window boundaries, so it is *not* byte-identical to the classic
  // engine; its error is bounded by the window size.  On this rig (many
  // short sequential round trips against a 0.5 ms op latency) the drift is a
  // direct function of window_batch, so the meaningful contract is
  // convergence: shrinking the window must drive the sharded model toward
  // the classic one.  Measured at seed 7: +61% at batch=64, +8% at batch=8,
  // +0.5% at batch=1.
  auto cfg = rig_config(1);
  aio::sim::Engine engine;
  aio::fs::FileSystem fs(engine, cfg.fs);
  aio::net::Network net(engine, cfg.net, cfg.n_ranks);
  aio::core::AdaptiveTransport transport(fs, net, cfg.adaptive);
  std::vector<IoResult> results;
  transport.run(seeded_job(7), [&](IoResult r) { results.push_back(std::move(r)); });
  engine.run();
  ASSERT_EQ(results.size(), 1u);
  const double classic = results.front().io_seconds();

  auto sharded_at = [&](double window_batch) {
    auto c = rig_config(1);
    c.window_batch = window_batch;
    return run_job(c, seeded_job(7)).result.io_seconds();
  };
  const double coarse = sharded_at(8.0);
  const double fine = sharded_at(1.0);
  EXPECT_NEAR(coarse, classic, 0.10 * classic)
      << "sharded model at window_batch=8 drifted >10% from the classic engine";
  EXPECT_NEAR(fine, classic, 0.02 * classic)
      << "sharded model at window_batch=1 drifted >2% from the classic engine";
  EXPECT_LT(std::abs(fine - classic), std::abs(coarse - classic))
      << "shrinking the window did not move the sharded model toward classic";
}

}  // namespace
