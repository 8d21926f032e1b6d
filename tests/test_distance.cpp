#include "topology/distance.hpp"

#include <gtest/gtest.h>

namespace tarr::topology {
namespace {

class DistanceOnMachines : public ::testing::TestWithParam<int> {
 protected:
  Machine machine() const { return Machine::gpc(GetParam()); }
};

TEST_P(DistanceOnMachines, SymmetricWithZeroDiagonal) {
  const Machine m = machine();
  const DistanceMatrix d = extract_distances(m);
  ASSERT_EQ(d.size(), m.total_cores());
  for (CoreId a = 0; a < d.size(); a += 3) {
    EXPECT_EQ(d.at(a, a), 0.0f);
    for (CoreId b = 0; b < d.size(); b += 5) {
      EXPECT_EQ(d.at(a, b), d.at(b, a));
    }
  }
}

TEST_P(DistanceOnMachines, ChannelHierarchyOrdering) {
  // The property every heuristic relies on: same socket < cross socket <
  // any inter-node distance.
  const Machine m = machine();
  const DistanceMatrix d = extract_distances(m);
  const float same_socket = d.at(0, 1);
  const float cross_socket = d.at(0, 4);
  EXPECT_LT(same_socket, cross_socket);
  if (m.num_nodes() > 1) {
    const float inter = d.at(0, m.cores_per_node());
    EXPECT_LT(cross_socket, inter);
  }
}

TEST_P(DistanceOnMachines, InterNodeGrowsWithHops) {
  const Machine m = machine();
  if (m.num_nodes() <= 30) return;  // needs at least two leaves
  const DistanceMatrix d = extract_distances(m);
  const int cpn = m.cores_per_node();
  const float same_leaf = d.at(0, 1 * cpn);
  const float cross_leaf = d.at(0, 30 * cpn);
  EXPECT_LT(same_leaf, cross_leaf);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DistanceOnMachines,
                         ::testing::Values(1, 2, 8, 31, 64));

TEST(Distance, ConstantWeightsApplied) {
  const Machine m = Machine::gpc(2);
  const DistanceMatrix d = extract_distances(m);
  EXPECT_EQ(d.at(0, 1), kSameSocket);
  EXPECT_EQ(d.at(0, 5), kCrossSocket);
  EXPECT_EQ(d.at(0, 8), kInterNodeBase + 2.0f * kPerHop);  // same leaf = 2 hops
}

TEST(Distance, NodeDistances) {
  const Machine m = Machine::gpc(60);
  const DistanceMatrix d = extract_node_distances(m);
  ASSERT_EQ(d.size(), 60);
  EXPECT_EQ(d.at(3, 3), 0.0f);
  EXPECT_GT(d.at(0, 1), 0.0f);
  // Same-leaf nodes are closer than cross-leaf nodes.
  EXPECT_LT(d.at(0, 29), d.at(0, 30));
}

TEST(Distance, IntranodeDistances) {
  const Machine m = Machine::gpc(1);
  const DistanceMatrix d = extract_intranode_distances(m);
  ASSERT_EQ(d.size(), 8);
  EXPECT_EQ(d.at(0, 0), 0.0f);
  EXPECT_LT(d.at(0, 3), d.at(0, 4));
  EXPECT_EQ(d.at(1, 2), d.at(2, 1));
}

TEST(Distance, MatrixSetAndRow) {
  DistanceMatrix d(3, 1.0f);
  d.set(0, 2, 5.0f);
  EXPECT_EQ(d.at(0, 2), 5.0f);
  EXPECT_EQ(d.at(2, 0), 5.0f);
  const DistanceMatrix::Row row = d.from(0);
  EXPECT_EQ(row[2], 5.0f);
  EXPECT_EQ(row[1], 1.0f);
}

}  // namespace
}  // namespace tarr::topology
