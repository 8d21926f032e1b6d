#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "mapping/comparators.hpp"

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

TEST(WeightedGraph, UnitWeightsEqualAFinalizedFlatCopy) {
  // The structure-only graph the Scotch-like mapper bisects, once built as a
  // second graph of the merged edges at weight 1, finalized again.
  for (const mapping::Pattern pattern :
       {mapping::Pattern::RecursiveDoubling, mapping::Pattern::Ring,
        mapping::Pattern::BinomialBcast, mapping::Pattern::BinomialGather,
        mapping::Pattern::Bruck})
    for (const int p : {2, 7, 64, 100, 512}) {
      if (pattern == mapping::Pattern::RecursiveDoubling && !is_pow2(p))
        continue;
      WeightedGraph g = mapping::build_pattern_graph(pattern, p);
      WeightedGraph flat(p);
      for (const Edge& e : g.edges()) flat.add_edge(e.u, e.v, 1.0);
      flat.finalize();
      g.set_unit_weights();
      ASSERT_EQ(g.num_edges(), flat.num_edges());
      for (int i = 0; i < g.num_edges(); ++i) {
        EXPECT_EQ(g.edges()[i].u, flat.edges()[i].u);
        EXPECT_EQ(g.edges()[i].v, flat.edges()[i].v);
        EXPECT_EQ(g.edges()[i].w, flat.edges()[i].w);
      }
      for (int u = 0; u < p; ++u) {
        ASSERT_EQ(g.neighbors(u).size(), flat.neighbors(u).size());
        for (std::size_t k = 0; k < g.neighbors(u).size(); ++k) {
          EXPECT_EQ(g.neighbors(u)[k].vertex, flat.neighbors(u)[k].vertex);
          EXPECT_EQ(g.neighbors(u)[k].weight, flat.neighbors(u)[k].weight);
        }
        EXPECT_EQ(g.weighted_degree(u), flat.weighted_degree(u));
      }
    }
  WeightedGraph open(2);
  EXPECT_THROW(open.set_unit_weights(), Error);
}

}  // namespace
}  // namespace tarr::graph
