// Property tests for the rank topology (contiguous grouping, SC placement).
#include <gtest/gtest.h>

#include "core/protocol/messages.hpp"

namespace {

using aio::core::GroupId;
using aio::core::Rank;
using aio::core::Topology;

TEST(Topology, SingleWriterSingleGroup) {
  const Topology t(1, 1);
  EXPECT_EQ(t.group_of(0), 0);
  EXPECT_EQ(t.sc_rank(0), 0);
  EXPECT_EQ(t.group_size(0), 1u);
  EXPECT_EQ(Topology::coordinator_rank(), 0);
}

TEST(Topology, EvenSplit) {
  const Topology t(12, 3);
  EXPECT_EQ(t.group_size(0), 4u);
  EXPECT_EQ(t.group_size(2), 4u);
  EXPECT_EQ(t.group_of(0), 0);
  EXPECT_EQ(t.group_of(3), 0);
  EXPECT_EQ(t.group_of(4), 1);
  EXPECT_EQ(t.group_of(11), 2);
  EXPECT_EQ(t.sc_rank(1), 4);
  EXPECT_EQ(t.sc_rank(2), 8);
}

TEST(Topology, UnevenSplitFrontLoadsRemainder) {
  const Topology t(10, 3);  // 4, 3, 3
  EXPECT_EQ(t.group_size(0), 4u);
  EXPECT_EQ(t.group_size(1), 3u);
  EXPECT_EQ(t.group_size(2), 3u);
  EXPECT_EQ(t.group_begin(0), 0);
  EXPECT_EQ(t.group_begin(1), 4);
  EXPECT_EQ(t.group_begin(2), 7);
}

TEST(Topology, InvalidConfigThrows) {
  EXPECT_THROW(Topology(0, 1), std::invalid_argument);
  EXPECT_THROW(Topology(4, 0), std::invalid_argument);
  EXPECT_THROW(Topology(4, 5), std::invalid_argument);
}

TEST(Topology, OutOfRangeAccessThrows) {
  const Topology t(8, 2);
  EXPECT_THROW((void)t.group_of(-1), std::out_of_range);
  EXPECT_THROW((void)t.group_of(8), std::out_of_range);
  EXPECT_THROW((void)t.group_size(2), std::out_of_range);
  EXPECT_THROW((void)t.group_begin(-1), std::out_of_range);
}

TEST(Topology, JaguarScale) {
  // The paper's worked example: 225k cores over 672 targets -> each SC
  // responsible for at most ~335 processes.
  const Topology t(224160, 672);
  std::size_t max_size = 0;
  for (GroupId g = 0; g < 672; ++g) max_size = std::max(max_size, t.group_size(g));
  EXPECT_LE(max_size, 335u);
  EXPECT_GE(max_size, 333u);
}

struct TopoParam {
  std::size_t writers;
  std::size_t groups;
};

class TopologyProperties : public ::testing::TestWithParam<TopoParam> {};

TEST_P(TopologyProperties, PartitionIsContiguousCompleteAndConsistent) {
  const auto [writers, groups] = GetParam();
  const Topology t(writers, groups);

  // Sizes sum to the writer count; each group is non-empty.
  std::size_t total = 0;
  for (GroupId g = 0; g < static_cast<GroupId>(groups); ++g) {
    EXPECT_GE(t.group_size(g), 1u);
    total += t.group_size(g);
    // SC is the group's first member.
    EXPECT_EQ(t.sc_rank(g), t.group_begin(g));
    EXPECT_EQ(t.group_of(t.sc_rank(g)), g);
  }
  EXPECT_EQ(total, writers);

  // group_of is the inverse of (group_begin, group_size): contiguous,
  // monotone, no gaps.
  GroupId prev = 0;
  for (Rank r = 0; r < static_cast<Rank>(writers); ++r) {
    const GroupId g = t.group_of(r);
    EXPECT_GE(g, prev);
    EXPECT_LE(g - prev, 1) << "gap at rank " << r;
    EXPECT_GE(r, t.group_begin(g));
    EXPECT_LT(static_cast<std::size_t>(r),
              static_cast<std::size_t>(t.group_begin(g)) + t.group_size(g));
    prev = g;
  }
  // Sizes differ by at most one (even spread).
  std::size_t lo = writers, hi = 0;
  for (GroupId g = 0; g < static_cast<GroupId>(groups); ++g) {
    lo = std::min(lo, t.group_size(g));
    hi = std::max(hi, t.group_size(g));
  }
  EXPECT_LE(hi - lo, 1u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopologyProperties,
                         ::testing::Values(TopoParam{1, 1}, TopoParam{2, 1}, TopoParam{2, 2},
                                           TopoParam{7, 3}, TopoParam{16, 4}, TopoParam{17, 4},
                                           TopoParam{100, 7}, TopoParam{512, 512},
                                           TopoParam{16384, 512}, TopoParam{1000, 672}));

}  // namespace
