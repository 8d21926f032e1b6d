#include "simmpi/layout.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/error.hpp"

namespace tarr::simmpi {
namespace {

using topology::Machine;

TEST(LayoutSpec, Names) {
  EXPECT_EQ(to_string(LayoutSpec{NodeOrder::Block, SocketOrder::Bunch}),
            "block-bunch");
  EXPECT_EQ(to_string(LayoutSpec{NodeOrder::Cyclic, SocketOrder::Scatter}),
            "cyclic-scatter");
  EXPECT_EQ(all_layouts().size(), 4u);
}

struct LayoutCase {
  LayoutSpec spec;
  int p;
};

class LayoutProperties
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LayoutProperties, CoresAreDistinctAndValid) {
  const auto [spec_idx, nodes, p] = GetParam();
  const Machine m = Machine::gpc(nodes);
  if (p > m.total_cores()) GTEST_SKIP();
  const LayoutSpec spec = all_layouts()[spec_idx];
  const auto layout = make_layout(m, p, spec);
  ASSERT_EQ(static_cast<int>(layout.size()), p);
  std::set<CoreId> seen(layout.begin(), layout.end());
  EXPECT_EQ(static_cast<int>(seen.size()), p);
  for (CoreId c : layout) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, m.total_cores());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LayoutProperties,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(1, 2, 4, 8),
                       ::testing::Values(1, 7, 8, 16, 61, 64)));

TEST(Layout, BlockFillsNodesInOrder) {
  const Machine m = Machine::gpc(4);
  const auto layout =
      make_layout(m, 32, LayoutSpec{NodeOrder::Block, SocketOrder::Bunch});
  for (Rank r = 0; r < 32; ++r) {
    EXPECT_EQ(m.node_of_core(layout[r]), r / 8);
  }
  // Bunch: first four ranks of a node on socket 0.
  EXPECT_EQ(m.socket_of_core(layout[0]), 0);
  EXPECT_EQ(m.socket_of_core(layout[3]), 0);
  EXPECT_EQ(m.socket_of_core(layout[4]), 1);
}

TEST(Layout, BlockScatterAlternatesSockets) {
  const Machine m = Machine::gpc(2);
  const auto layout =
      make_layout(m, 16, LayoutSpec{NodeOrder::Block, SocketOrder::Scatter});
  for (Rank r = 0; r < 16; ++r) {
    EXPECT_EQ(m.socket_of_core(layout[r]), r % 2);
  }
}

TEST(Layout, CyclicRoundRobinsNodes) {
  const Machine m = Machine::gpc(4);
  const auto layout =
      make_layout(m, 32, LayoutSpec{NodeOrder::Cyclic, SocketOrder::Bunch});
  for (Rank r = 0; r < 32; ++r) {
    EXPECT_EQ(m.node_of_core(layout[r]), r % 4);
  }
  // The first full round lands on each node's first core (socket 0).
  for (Rank r = 0; r < 4; ++r) EXPECT_EQ(m.socket_of_core(layout[r]), 0);
}

TEST(Layout, CyclicScatterCombination) {
  const Machine m = Machine::gpc(2);
  const auto layout =
      make_layout(m, 16, LayoutSpec{NodeOrder::Cyclic, SocketOrder::Scatter});
  // rank -> node r%2, k = r/2; socket = k%2.
  for (Rank r = 0; r < 16; ++r) {
    EXPECT_EQ(m.node_of_core(layout[r]), r % 2);
    EXPECT_EQ(m.socket_of_core(layout[r]), (r / 2) % 2);
  }
}

TEST(Layout, CyclicUsesOnlyNeededNodes) {
  const Machine m = Machine::gpc(8);
  // 16 ranks on 8-core nodes -> exactly 2 nodes used.
  const auto layout =
      make_layout(m, 16, LayoutSpec{NodeOrder::Cyclic, SocketOrder::Bunch});
  std::set<NodeId> nodes;
  for (CoreId c : layout) nodes.insert(m.node_of_core(c));
  EXPECT_EQ(nodes.size(), 2u);
}

TEST(Layout, RejectsOversubscription) {
  const Machine m = Machine::gpc(1);
  EXPECT_THROW(make_layout(m, 9, LayoutSpec{}), Error);
  EXPECT_THROW(make_layout(m, 0, LayoutSpec{}), Error);
}

/// The what() of the tarr::Error `f` throws; "" when it throws none.
template <class F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Layout, BadInputReadsInPlainText) {
  // What `tarr --layout` and `tarr --procs` users read: the message alone,
  // with no C++ condition or source path.
  EXPECT_EQ(error_of([] { (void)parse_layout_spec("bogus"); }),
            "parse_layout_spec: unknown layout: bogus");
  EXPECT_EQ(error_of([] { (void)parse_layout_spec("diagonal:block"); }),
            "parse_layout_spec: unknown node policy: diagonal");
  EXPECT_EQ(error_of([] { (void)parse_layout_spec("cyclic:bogus"); }),
            "parse_layout_spec: unknown socket policy: bogus");
  const Machine m = Machine::gpc(1);
  EXPECT_EQ(error_of([&] { (void)make_layout(m, 9, LayoutSpec{}); }),
            "make_layout: more ranks than cores");
  EXPECT_EQ(error_of([&] { (void)make_layout(m, 0, LayoutSpec{}); }),
            "make_layout: need at least one rank");
}

}  // namespace
}  // namespace tarr::simmpi
