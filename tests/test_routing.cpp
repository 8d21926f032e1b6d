#include "topology/routing.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "topology/fattree.hpp"

namespace tarr::topology {
namespace {

/// The route's links in order.
std::vector<LinkId> links_of(const Router& r, NodeId src, NodeId dst) {
  std::vector<LinkId> links;
  r.walk(src, dst, [&](Hop h) { links.push_back(h.link); });
  return links;
}

/// Walks the route and checks every hop is a valid traversal.
void expect_valid_path(const SwitchGraph& g, const Router& r, NodeId src,
                       NodeId dst) {
  NetVertexId at = g.host_vertex(src);
  r.walk(src, dst, [&](Hop h) { at = g.other_end(h.link, at); });
  EXPECT_EQ(at, g.host_vertex(dst));
}

TEST(Router, EmptyPathForSelf) {
  const SwitchGraph g = build_single_switch_network(3);
  const Router r(g);
  EXPECT_EQ(r.hops(1, 1), 0);
  EXPECT_TRUE(links_of(r, 2, 2).empty());
}

TEST(Router, SingleSwitchTwoHops) {
  const SwitchGraph g = build_single_switch_network(4);
  const Router r(g);
  for (NodeId a = 0; a < 4; ++a) {
    for (NodeId b = 0; b < 4; ++b) {
      if (a != b) {
        EXPECT_EQ(r.hops(a, b), 2);
      }
    }
  }
}

TEST(Router, AllPairsValidOnGpc) {
  const SwitchGraph g = build_gpc_network(90);  // 3 leaves
  const Router r(g);
  for (NodeId a = 0; a < 90; a += 7)
    for (NodeId b = 0; b < 90; b += 11)
      if (a != b) expect_valid_path(g, r, a, b);
}

TEST(Router, GpcHopCountsByLocality) {
  const SwitchGraph g = build_gpc_network(240);  // 8 leaves, 2 line groups
  const Router r(g);
  // Same leaf: host-leaf-host.
  EXPECT_EQ(r.hops(0, 1), 2);
  EXPECT_EQ(r.hops(0, 29), 2);
  // Different leaves, same line-switch group (leaves 0..5 share line 0):
  // host-leaf-line-leaf-host.
  EXPECT_EQ(r.hops(0, 30), 4);
  EXPECT_EQ(r.hops(0, 5 * 30), 4);
  // Different line groups (leaf 0 vs leaf 6): via a spine, 6 hops.
  EXPECT_EQ(r.hops(0, 6 * 30), 6);
}

TEST(Router, HopsAreSymmetric) {
  const SwitchGraph g = build_gpc_network(240);
  const Router r(g);
  for (NodeId a = 0; a < 240; a += 13)
    for (NodeId b = 0; b < 240; b += 17)
      EXPECT_EQ(r.hops(a, b), r.hops(b, a));
}

TEST(Router, DeterministicAcrossInstances) {
  const SwitchGraph g = build_gpc_network(120);
  const Router r1(g), r2(g);
  for (NodeId a = 0; a < 120; a += 10) {
    for (NodeId b = 0; b < 120; b += 9) {
      if (a == b) continue;
      const auto p1 = links_of(r1, a, b);
      const auto p2 = links_of(r2, a, b);
      ASSERT_EQ(p1.size(), p2.size());
      for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p2[i]);
    }
  }
}

TEST(Router, SpreadsTrafficAcrossUplinks) {
  // Flows from leaf 0 to many distinct far-away destinations should not all
  // take the same first uplink (destination-based spreading).
  const SwitchGraph g = build_gpc_network(960);
  const Router r(g);
  std::set<LinkId> first_uplinks;
  for (NodeId dst = 300; dst < 960; dst += 30) {
    const auto p = links_of(r, 0, dst);
    ASSERT_GE(p.size(), 2u);
    first_uplinks.insert(p[1]);  // p[0] is the host link
  }
  EXPECT_GT(first_uplinks.size(), 1u);
}

TEST(Router, PathUsesShortestRoute) {
  // In a two-level fat tree every inter-leaf route is exactly 4 hops.
  const SwitchGraph g = build_two_level_fattree(16, 4, 3);
  const Router r(g);
  for (NodeId a = 0; a < 16; ++a) {
    for (NodeId b = 0; b < 16; ++b) {
      if (a == b) continue;
      EXPECT_EQ(r.hops(a, b), a / 4 == b / 4 ? 2 : 4);
    }
  }
}

TEST(Router, OutOfRangeThrows) {
  const SwitchGraph g = build_single_switch_network(2);
  const Router r(g);
  EXPECT_THROW(r.walk(0, 2, [](Hop) {}), Error);
  EXPECT_THROW(r.walk(-1, 0, [](Hop) {}), Error);
}

TEST(Router, SingleHostGraphIsTriviallyConnected) {
  const SwitchGraph g = build_single_switch_network(1);
  const Router r(g);
  EXPECT_TRUE(r.fully_connected());
  EXPECT_EQ(r.partition().components.size(), 1u);
  EXPECT_EQ(r.hops(0, 0), 0);
  EXPECT_TRUE(r.reachable(0, 0));
}

TEST(Router, DisconnectedGraphThrowsStructuredError) {
  // Two islands wired by hand: hosts {0,1} on one switch, {2,3} on another,
  // no cable between the switches.
  SwitchGraph g;
  const auto sa = g.add_vertex(VertexKind::Switch, "a");
  const auto sb = g.add_vertex(VertexKind::Switch, "b");
  for (NodeId n = 0; n < 4; ++n) {
    std::string name = "n";
    name += std::to_string(n);
    const auto h = g.add_vertex(VertexKind::Host, std::move(name), n);
    g.add_link(h, n < 2 ? sa : sb);
  }
  try {
    Router r(g);
    FAIL() << "expected PartitionedError";
  } catch (const PartitionedError& e) {
    ASSERT_EQ(e.info().components.size(), 2u);
    EXPECT_EQ(e.info().components[0], (std::vector<NodeId>{0, 1}));
    EXPECT_EQ(e.info().components[1], (std::vector<NodeId>{2, 3}));
  }
}

TEST(Router, HostComponentsReportsIsolatedHostsAsSingletons) {
  SwitchGraph g;
  const auto sw = g.add_vertex(VertexKind::Switch, "sw");
  const auto h0 = g.add_vertex(VertexKind::Host, "n0", 0);
  g.add_link(h0, sw);
  g.add_vertex(VertexKind::Host, "n1", 1);  // no links at all
  const Partitioned parts = host_components(g);
  ASSERT_EQ(parts.components.size(), 2u);
  EXPECT_EQ(parts.components[0], (std::vector<NodeId>{0}));
  EXPECT_EQ(parts.components[1], (std::vector<NodeId>{1}));
  EXPECT_NE(parts.describe().find("2 component"), std::string::npos);
}

TEST(Router, MultiLinkRemovalPartitionsFatTree) {
  // Cutting both of leaf 0's uplinks splits its 4 nodes from the rest.
  const SwitchGraph g = build_two_level_fattree(8, 4, 2);
  const SwitchGraph cut = g.with_failed_links({0, 1});
  EXPECT_THROW(Router{cut}, PartitionedError);

  const Router r(cut, Router::HostPolicy::AllowUnreachable);
  EXPECT_FALSE(r.fully_connected());
  ASSERT_EQ(r.partition().components.size(), 2u);
  EXPECT_EQ(r.partition().components[0], (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(r.partition().components[1], (std::vector<NodeId>{4, 5, 6, 7}));
  // Pairs inside a component still route; pairs across the cut throw the
  // structured error at use time.
  EXPECT_TRUE(r.reachable(0, 3));
  EXPECT_EQ(r.hops(0, 3), 2);
  expect_valid_path(cut, r, 5, 7);
  EXPECT_FALSE(r.reachable(0, 4));
  EXPECT_THROW(r.walk(0, 4, [](Hop) {}), PartitionedError);
  EXPECT_THROW(r.hops(4, 0), PartitionedError);
  try {
    r.walk(0, 4, [](Hop) {});
  } catch (const PartitionedError& e) {
    EXPECT_EQ(e.info().components.size(), 2u);
  }
}

TEST(Router, SingleLinkFailureFailsOverAtEqualLength) {
  // With a surviving parallel spine, every pair keeps a 4-hop route after
  // one uplink dies.
  const SwitchGraph g = build_two_level_fattree(8, 4, 2);
  const Router before(g);
  const auto first_uplink = links_of(before, 0, 4)[1];
  const SwitchGraph cut = g.with_failed_links({first_uplink});
  const Router after(cut);
  EXPECT_TRUE(after.fully_connected());
  for (NodeId a = 0; a < 8; ++a)
    for (NodeId b = 0; b < 8; ++b) {
      if (a == b) continue;
      EXPECT_EQ(after.hops(a, b), a / 4 == b / 4 ? 2 : 4);
      expect_valid_path(cut, after, a, b);
    }
}

}  // namespace
}  // namespace tarr::topology
