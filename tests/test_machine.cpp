#include "topology/machine.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::topology {
namespace {

TEST(NodeShape, CoreLocation) {
  const NodeShape s{2, 4};
  EXPECT_EQ(s.cores_per_node(), 8);
  EXPECT_EQ(core_location(s, 0).socket, 0);
  EXPECT_EQ(core_location(s, 3).socket, 0);
  EXPECT_EQ(core_location(s, 4).socket, 1);
  EXPECT_EQ(core_location(s, 7).socket, 1);
  EXPECT_EQ(core_location(s, 5).core_in_socket, 1);
  EXPECT_THROW(core_location(s, 8), Error);
}

TEST(NodeShape, IntranodeDistance) {
  const NodeShape s{2, 4};
  EXPECT_EQ(intranode_distance(s, 2, 2), 0);
  EXPECT_EQ(intranode_distance(s, 0, 3), 1);
  EXPECT_EQ(intranode_distance(s, 0, 4), 2);
  EXPECT_EQ(intranode_distance(s, 7, 6), 1);
}

TEST(Machine, CoreNumberingRoundtrip) {
  const Machine m = Machine::gpc(4);
  EXPECT_EQ(m.num_nodes(), 4);
  EXPECT_EQ(m.cores_per_node(), 8);
  EXPECT_EQ(m.total_cores(), 32);
  for (CoreId c = 0; c < m.total_cores(); ++c) {
    EXPECT_EQ(m.core_id(m.node_of_core(c), m.local_core(c)), c);
  }
  EXPECT_EQ(m.node_of_core(0), 0);
  EXPECT_EQ(m.node_of_core(7), 0);
  EXPECT_EQ(m.node_of_core(8), 1);
  EXPECT_EQ(m.socket_of_core(3), 0);
  EXPECT_EQ(m.socket_of_core(4), 1);
  EXPECT_EQ(m.socket_of_core(12), 1);
}

TEST(Machine, CustomShape) {
  const Machine m = Machine::single_switch(3, NodeShape{4, 2});
  EXPECT_EQ(m.cores_per_node(), 8);
  EXPECT_EQ(m.socket_of_core(2), 1);
  EXPECT_EQ(m.socket_of_core(6), 3);
}

TEST(Machine, NetworkHopsBetweenCores) {
  const Machine m = Machine::gpc(60);
  EXPECT_EQ(m.network_hops_between_cores(0, 7), 0);     // same node
  EXPECT_EQ(m.network_hops_between_cores(0, 8), 2);     // same leaf
  EXPECT_EQ(m.network_hops_between_cores(0, 30 * 8), 4);  // next leaf
}

TEST(Machine, OutOfRangeRejected) {
  const Machine m = Machine::gpc(2);
  EXPECT_THROW(m.node_of_core(16), Error);
  EXPECT_THROW(m.core_id(2, 0), Error);
  EXPECT_THROW(m.core_id(0, 8), Error);
}

TEST(Machine, DescribeMentionsScale) {
  const Machine m = Machine::gpc(3);
  const std::string d = m.describe();
  EXPECT_NE(d.find("3 nodes"), std::string::npos);
  EXPECT_NE(d.find("24 cores"), std::string::npos);
}

TEST(Machine, ConstructionIsProfiledAsNetworkAndRouterBuild) {
  // Set-up is nearly all machine construction once distances are cheap; a
  // profiled run must show where it went.
  prof::Profiler profiler;
  {
    prof::ScopedThreadProfiler guard(&profiler);
    const Machine m = Machine::gpc(8);
  }
  const prof::Profile p = profiler.snapshot();
  for (const char* scope : {"network-build", "router-build"}) {
    const prof::ProfileEntry* e = p.find(scope);
    ASSERT_NE(e, nullptr) << scope;
    EXPECT_EQ(e->calls, 1) << scope;
  }
}

}  // namespace
}  // namespace tarr::topology
