#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace tarr::graph {
namespace {

TEST(WeightedGraph, MergesParallelEdges) {
  WeightedGraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 0, 2.5);
  g.add_edge(1, 2, 1.0);
  g.finalize();
  EXPECT_EQ(g.num_edges(), 2);
  double w01 = 0;
  for (const auto& nb : g.neighbors(0))
    if (nb.vertex == 1) w01 = nb.weight;
  EXPECT_DOUBLE_EQ(w01, 3.5);
}

TEST(WeightedGraph, WeightedDegree) {
  WeightedGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(0, 3, 3.0);
  g.finalize();
  EXPECT_DOUBLE_EQ(g.weighted_degree(0), 6.0);
  EXPECT_DOUBLE_EQ(g.weighted_degree(3), 3.0);
}

TEST(WeightedGraph, RejectsBadEdges) {
  WeightedGraph g(2);
  EXPECT_THROW(g.add_edge(0, 0), Error);
  EXPECT_THROW(g.add_edge(0, 2), Error);
  EXPECT_THROW(g.add_edge(-1, 0), Error);
  EXPECT_THROW(g.add_edge(0, 1, 0.0), Error);
  EXPECT_THROW(g.add_edge(0, 1, -1.0), Error);
}

TEST(WeightedGraph, AccessBeforeFinalizeThrows) {
  WeightedGraph g(2);
  g.add_edge(0, 1);
  EXPECT_THROW(g.neighbors(0), Error);
  EXPECT_THROW(g.edges(), Error);
  EXPECT_THROW(g.weighted_degree(0), Error);
}

TEST(WeightedGraph, AddAfterFinalizeThrows) {
  WeightedGraph g(3);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_THROW(g.add_edge(1, 2), Error);
}

TEST(WeightedGraph, FinalizeIdempotent) {
  WeightedGraph g(2);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_NO_THROW(g.finalize());
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(WeightedGraph, NeighborsAreBidirectional) {
  WeightedGraph g(3);
  g.add_edge(0, 2, 4.0);
  g.finalize();
  ASSERT_EQ(g.neighbors(2).size(), 1u);
  EXPECT_EQ(g.neighbors(2)[0].vertex, 0);
  EXPECT_DOUBLE_EQ(g.neighbors(2)[0].weight, 4.0);
}

}  // namespace
}  // namespace tarr::graph
