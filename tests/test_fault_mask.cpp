#include "fault/fault_mask.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "topology/fattree.hpp"
#include "topology/routing.hpp"

namespace tarr::fault {
namespace {

using topology::Hop;
using topology::Router;
using topology::SwitchGraph;
using topology::VertexKind;
using topology::build_gpc_network;
using topology::build_single_switch_network;
using topology::build_two_level_fattree;

/// The route's links in order.
std::vector<LinkId> links_of(const Router& r, NodeId src, NodeId dst) {
  std::vector<LinkId> links;
  r.walk(src, dst, [&](Hop h) { links.push_back(h.link); });
  return links;
}

TEST(FaultMask, EmptyMaskReproducesGraphExactly) {
  const SwitchGraph g = build_gpc_network(60);
  const SwitchGraph d = FaultMask{}.apply(g);
  ASSERT_EQ(d.num_vertices(), g.num_vertices());
  ASSERT_EQ(d.num_links(), g.num_links());
  for (NetVertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(d.vertex(v).kind, g.vertex(v).kind);
    EXPECT_EQ(d.vertex(v).node, g.vertex(v).node);
  }
  for (LinkId l = 0; l < g.num_links(); ++l) {
    EXPECT_EQ(d.link(l).a, g.link(l).a);
    EXPECT_EQ(d.link(l).b, g.link(l).b);
    EXPECT_EQ(d.link(l).capacity, g.link(l).capacity);
  }
}

TEST(FaultMask, EmptyMaskYieldsIdenticalRoutes) {
  const SwitchGraph g = build_gpc_network(90);
  const SwitchGraph d = FaultMask{}.apply(g);
  const Router r1(g), r2(d);
  for (NodeId a = 0; a < 90; a += 7) {
    for (NodeId b = 0; b < 90; b += 11) {
      const auto p1 = links_of(r1, a, b);
      const auto p2 = links_of(r2, a, b);
      ASSERT_EQ(p1.size(), p2.size());
      for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i], p2[i]);
    }
  }
}

TEST(FaultMask, BuilderAccessorsAndIdempotence) {
  FaultMask m;
  EXPECT_TRUE(m.empty());
  m.fail_link(3).fail_link(1).fail_link(3).fail_node(2).degrade_link(5, 1);
  EXPECT_FALSE(m.empty());
  EXPECT_EQ(m.failed_links(), (std::vector<LinkId>{1, 3}));
  EXPECT_EQ(m.failed_nodes(), (std::vector<NodeId>{2}));
  EXPECT_TRUE(m.node_failed(2));
  EXPECT_FALSE(m.node_failed(1));
  EXPECT_EQ(m.num_failures(), 3);  // degradations are not failures
  EXPECT_NE(m.describe().find("2 links"), std::string::npos);
}

TEST(FaultMask, FailLinkRemovesExactlyThatLink) {
  const SwitchGraph g = build_two_level_fattree(8, 4, 2);
  const SwitchGraph d = FaultMask{}.fail_link(0).apply(g);
  EXPECT_EQ(d.num_links(), g.num_links() - 1);
  // Surviving links keep endpoints/capacity in original order.
  for (LinkId l = 0; l < d.num_links(); ++l) {
    EXPECT_EQ(d.link(l).a, g.link(l + 1).a);
    EXPECT_EQ(d.link(l).b, g.link(l + 1).b);
    EXPECT_EQ(d.link(l).capacity, g.link(l + 1).capacity);
  }
}

TEST(FaultMask, FailoverReroutesOntoSurvivingShortestPath) {
  // Two spines: cutting the leaf->spine link a route uses must reroute via
  // the other spine at the same length.
  const SwitchGraph g = build_two_level_fattree(8, 4, 2);
  const Router before(g);
  const auto path = links_of(before, 0, 7);  // crosses leaves
  ASSERT_EQ(path.size(), 4u);
  // path[1] is the leaf->spine uplink chosen for this destination.
  const SwitchGraph d = FaultMask{}.fail_link(path[1]).apply(g);
  const Router after(d);
  EXPECT_TRUE(after.fully_connected());
  EXPECT_EQ(after.hops(0, 7), 4);
  // The degraded route is valid hop by hop.
  NetVertexId at = d.host_vertex(0);
  after.walk(0, 7, [&](Hop h) { at = d.other_end(h.link, at); });
  EXPECT_EQ(at, d.host_vertex(7));
}

TEST(FaultMask, DegradeLinkReducesCapacity) {
  const SwitchGraph g = build_gpc_network(60);
  // Find an aggregated leaf->core uplink (capacity 3).
  LinkId uplink = -1;
  for (LinkId l = 0; l < g.num_links(); ++l)
    if (g.link(l).capacity == 3) {
      uplink = l;
      break;
    }
  ASSERT_GE(uplink, 0);
  const SwitchGraph d = FaultMask{}.degrade_link(uplink, 1).apply(g);
  EXPECT_EQ(d.link(uplink).capacity, 1);
  EXPECT_EQ(d.num_links(), g.num_links());
}

TEST(FaultMask, DegradeFactorScalesCapacityWithFloorOfOne) {
  const SwitchGraph g = build_gpc_network(60);
  LinkId uplink = -1;
  for (LinkId l = 0; l < g.num_links(); ++l)
    if (g.link(l).capacity == 3) {
      uplink = l;
      break;
    }
  ASSERT_GE(uplink, 0);
  // capacity 3 * 0.5 -> 1 (truncated), * 1.0 -> unchanged, tiny -> floor 1.
  EXPECT_EQ(FaultMask{}.degrade_link_factor(uplink, 0.5).apply(g)
                .link(uplink).capacity, 1);
  EXPECT_EQ(FaultMask{}.degrade_link_factor(uplink, 1.0).apply(g)
                .link(uplink).capacity, 3);
  EXPECT_EQ(FaultMask{}.degrade_link_factor(uplink, 0.01).apply(g)
                .link(uplink).capacity, 1);
}

TEST(FaultMask, DegradeFactorRejectsNonFiniteAndOutOfRange) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(FaultMask{}.degrade_link_factor(0, nan), Error);
  EXPECT_THROW(FaultMask{}.degrade_link_factor(0, inf), Error);
  EXPECT_THROW(FaultMask{}.degrade_link_factor(0, -inf), Error);
  EXPECT_THROW(FaultMask{}.degrade_link_factor(0, 0.0), Error);
  EXPECT_THROW(FaultMask{}.degrade_link_factor(0, -0.5), Error);
  EXPECT_THROW(FaultMask{}.degrade_link_factor(0, 1.5), Error);
  EXPECT_THROW(FaultMask{}.degrade_link_factor(-1, 0.5), Error);
}

TEST(FaultMask, DegradeSameLinkTwiceRejectedAcrossBothModes) {
  EXPECT_THROW(FaultMask{}.degrade_link(4, 2).degrade_link_factor(4, 0.5),
               Error);
  EXPECT_THROW(FaultMask{}.degrade_link_factor(4, 0.5).degrade_link(4, 2),
               Error);
}

TEST(FaultMask, DegradeBeyondCapacityThrows) {
  const SwitchGraph g = build_single_switch_network(2);  // capacity-1 links
  EXPECT_THROW(FaultMask{}.degrade_link(0, 2).apply(g), Error);
  EXPECT_THROW(FaultMask{}.degrade_link(0, 0), Error);
}

TEST(FaultMask, FailSwitchDropsAllIncidentLinks) {
  const SwitchGraph g = build_single_switch_network(4);
  const SwitchGraph d = FaultMask{}.fail_switch(0).apply(g);  // the xbar
  EXPECT_EQ(d.num_links(), 0);
  const auto parts = topology::host_components(d);
  EXPECT_EQ(parts.components.size(), 4u);
  EXPECT_THROW(Router{d}, topology::PartitionedError);
}

TEST(FaultMask, FailSwitchOnHostVertexRejected) {
  const SwitchGraph g = build_single_switch_network(2);
  // Vertex 1 is node 0's host endpoint.
  ASSERT_EQ(g.vertex(1).kind, VertexKind::Host);
  EXPECT_THROW(FaultMask{}.fail_switch(1).apply(g), Error);
}

TEST(FaultMask, FailNodeIsolatesOnlyThatHost) {
  const SwitchGraph g = build_two_level_fattree(8, 4, 2);
  const SwitchGraph d = FaultMask{}.fail_node(3).apply(g);
  EXPECT_TRUE(d.incident(d.host_vertex(3)).empty());
  const Router r(d, Router::HostPolicy::AllowUnreachable);
  EXPECT_FALSE(r.reachable(0, 3));
  EXPECT_TRUE(r.reachable(0, 7));
  EXPECT_EQ(r.hops(0, 7), 4);
}

TEST(FaultMask, OutOfRangeIdsRejected) {
  const SwitchGraph g = build_single_switch_network(2);
  EXPECT_THROW(FaultMask{}.fail_link(99).apply(g), Error);
  EXPECT_THROW(FaultMask{}.fail_switch(99).apply(g), Error);
  EXPECT_THROW(FaultMask{}.fail_node(99).apply(g), Error);
  EXPECT_THROW(FaultMask{}.degrade_link(99, 1).apply(g), Error);
  EXPECT_THROW(FaultMask{}.fail_link(-1), Error);
  EXPECT_THROW(FaultMask{}.fail_node(-1), Error);
}

TEST(FaultMask, RandomLinksDeterministicAndHostSparing) {
  const SwitchGraph g = build_gpc_network(90);
  Rng a(7), b(7);
  const FaultMask ma = FaultMask::random_links(g, 5, a);
  const FaultMask mb = FaultMask::random_links(g, 5, b);
  EXPECT_EQ(ma.failed_links(), mb.failed_links());
  EXPECT_EQ(ma.failed_links().size(), 5u);
  for (LinkId l : ma.failed_links()) {
    const auto& ln = g.link(l);
    EXPECT_NE(g.vertex(ln.a).kind, VertexKind::Host);
    EXPECT_NE(g.vertex(ln.b).kind, VertexKind::Host);
  }
}

TEST(FaultMask, RandomLinksCanIncludeHostLinks) {
  // A single-switch network has only host links: without the opt-in flag
  // there is nothing to sample.
  const SwitchGraph g = build_single_switch_network(8);
  Rng rng(3);
  EXPECT_THROW(FaultMask::random_links(g, 1, rng), Error);
  const FaultMask m = FaultMask::random_links(g, 3, rng, true);
  EXPECT_EQ(m.failed_links().size(), 3u);
}

TEST(FaultMask, RandomNodesSamplesDistinctNodes) {
  const SwitchGraph g = build_single_switch_network(10);
  Rng rng(11);
  const FaultMask m = FaultMask::random_nodes(g, 4, rng);
  EXPECT_EQ(m.failed_nodes().size(), 4u);
  const std::set<NodeId> unique(m.failed_nodes().begin(),
                                m.failed_nodes().end());
  EXPECT_EQ(unique.size(), 4u);
  Rng rng2(11);
  EXPECT_THROW(FaultMask::random_nodes(g, 11, rng2), Error);
}

}  // namespace
}  // namespace tarr::fault
