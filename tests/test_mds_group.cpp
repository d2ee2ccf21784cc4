// Tests for the multi-MDS tier (fs/mds_group.hpp): hash placement and
// aggregate telemetry.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fs/mds_group.hpp"
#include "sim/engine.hpp"

namespace {

using aio::fs::MdsGroup;
using aio::fs::MetadataServer;
using aio::sim::Engine;
using aio::sim::Time;

MdsGroup::Config tier(std::size_t count) {
  MdsGroup::Config c;
  c.count = count;
  c.server.open_base_s = 0.001;
  c.server.close_base_s = 0.0005;
  c.server.stat_base_s = 0.0002;
  c.server.queue_penalty = 0.0;
  c.server.batch_item_s = 0.0001;
  return c;
}

TEST(MdsGroup, CountIsClampedToAtLeastOne) {
  Engine e;
  MdsGroup g(e, MdsGroup::Config{0, {}});
  EXPECT_EQ(g.count(), 1u);
  EXPECT_EQ(g.index_of("anything"), 0u);
}

TEST(MdsGroup, PlacementIsDeterministicAndStable) {
  Engine e1, e2;
  MdsGroup a(e1, tier(4));
  MdsGroup b(e2, tier(4));
  for (int i = 0; i < 64; ++i) {
    const std::string path = "run/file." + std::to_string(i);
    const std::uint32_t m = a.index_of(path);
    EXPECT_LT(m, 4u);
    EXPECT_EQ(m, b.index_of(path)) << path;  // same hash, independent of engine
  }
}

TEST(MdsGroup, PlacementSpreadsAFilePerProcessStorm) {
  // FNV-1a over "dir/pp.<rank>" paths must not collapse onto few servers:
  // every server of an 8-wide tier sees a reasonable share of 4096 files.
  Engine e;
  MdsGroup g(e, tier(8));
  std::vector<std::size_t> hits(8, 0);
  for (int i = 0; i < 4096; ++i) ++hits[g.index_of("dir/pp." + std::to_string(i))];
  for (std::size_t m = 0; m < 8; ++m) {
    EXPECT_GT(hits[m], 4096u / 16) << "mds " << m;  // > half of a fair share
    EXPECT_LT(hits[m], 4096u / 4) << "mds " << m;   // < twice a fair share
  }
}

TEST(MdsGroup, ServersServeIndependently) {
  // Two servers drain two equal storms in parallel: completion time equals
  // one server's drain, and the aggregate telemetry sums both.
  Engine e;
  MdsGroup g(e, tier(2));
  Time done0 = -1, done1 = -1;
  for (int i = 0; i < 8; ++i) {
    g.submit(0, MetadataServer::OpKind::Open, [&](Time t) { done0 = t; });
    g.submit(1, MetadataServer::OpKind::Open, [&](Time t) { done1 = t; });
  }
  e.run();
  EXPECT_NEAR(done0, 8 * 0.001, 1e-9);
  EXPECT_NEAR(done1, done0, 1e-12);  // independent queues, same price
  EXPECT_EQ(g.completed_ops(), 16u);
  EXPECT_EQ(g.completed_items(), 16u);
  EXPECT_EQ(g.peak_backlog(), 8u);  // max over servers, not the sum
  EXPECT_EQ(g.backlog(), 0u);
}

TEST(MdsGroup, ClassicSubmitFromDegeneratesToDirectCall) {
  // Without a shard group there is no channel plane: submit_from must be
  // exactly a direct submit, timestamps included.
  Engine ea;
  MdsGroup a(ea, tier(2));
  Time ta = -1;
  a.submit_from(/*src_key=*/7, 1, MetadataServer::OpKind::Open, [&](Time t) { ta = t; });
  ea.run();

  Engine eb;
  MdsGroup b(eb, tier(2));
  Time tb = -1;
  b.submit(1, MetadataServer::OpKind::Open, [&](Time t) { tb = t; });
  eb.run();
  EXPECT_EQ(ta, tb);
}

TEST(MdsGroup, SubmitBatchLandsOnOneServerAsOneRequest) {
  // The create-storm bench's batched client: 32 creates for server 1 ride
  // one queue slot there, priced as one create plus 31 marginal items, and
  // the other server sees nothing.
  Engine e;
  MdsGroup g(e, tier(2));
  Time done = -1;
  g.submit_batch(1, MetadataServer::OpKind::Create, 32, [&](Time t) { done = t; });
  e.run();
  EXPECT_NEAR(done, 0.001 + 31 * 0.0001, 1e-12);
  EXPECT_EQ(g.server(1).completed_ops(), 1u);
  EXPECT_EQ(g.server(1).completed_items(), 32u);
  EXPECT_EQ(g.server(0).completed_ops(), 0u);
  EXPECT_EQ(g.completed_ops(), 1u);
  EXPECT_EQ(g.completed_items(), 32u);
}

TEST(MdsGroup, ClassicSubmitBatchFromDegeneratesToDirectCall) {
  Engine ea;
  MdsGroup a(ea, tier(2));
  std::vector<Time> ta;
  for (const std::size_t items : {8u, 3u, 1u})
    a.submit_batch_from(/*src_key=*/7, 0, MetadataServer::OpKind::Create, items,
                        [&](Time t) { ta.push_back(t); });
  ea.run();

  Engine eb;
  MdsGroup b(eb, tier(2));
  std::vector<Time> tb;
  for (const std::size_t items : {8u, 3u, 1u})
    b.submit_batch(0, MetadataServer::OpKind::Create, items, [&](Time t) { tb.push_back(t); });
  eb.run();
  ASSERT_EQ(ta.size(), 3u);
  EXPECT_EQ(ta, tb);
  EXPECT_EQ(a.completed_items(), 12u);
  EXPECT_EQ(a.completed_ops(), b.completed_ops());
}

}  // namespace
