#include "graph/apppattern.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/framework.hpp"
#include "mapping/comparators.hpp"
#include "mapping/mapcost.hpp"
#include "simmpi/layout.hpp"

namespace tarr::graph {
namespace {

TEST(Stencil2d, EdgeCountAndWeights) {
  const WeightedGraph g = stencil2d_pattern(4, 3, 2.5);
  EXPECT_EQ(g.num_vertices(), 12);
  // Horizontal: 3*3 = 9; vertical: 4*2 = 8.
  EXPECT_EQ(g.num_edges(), 17);
  for (const auto& e : g.edges()) EXPECT_DOUBLE_EQ(e.w, 2.5);
}

TEST(Stencil2d, InteriorVertexHasFourNeighbors) {
  const WeightedGraph g = stencil2d_pattern(3, 3);
  EXPECT_EQ(g.neighbors(4).size(), 4u);  // center of 3x3
  EXPECT_EQ(g.neighbors(0).size(), 2u);  // corner
}

TEST(AppPatternErrors, BadParameters) {
  EXPECT_THROW(stencil2d_pattern(1, 1), Error);
}

TEST(GeneralMapping, BisectionFindsStencilTiles) {
  // The §V "general forms" path: recursive bipartitioning of an 8x8 stencil
  // onto 8 nodes finds 2D tiles (cut 32) rather than rows (cut 56), so the
  // weighted cost drops well below both the cyclic initial layout and the
  // greedy mapper's row packing.
  const topology::Machine m = topology::Machine::gpc(8);
  const int p = 64;
  const WeightedGraph pattern = stencil2d_pattern(8, 8);
  const auto cores = simmpi::make_layout(
      m, p, {simmpi::NodeOrder::Cyclic, simmpi::SocketOrder::Scatter});
  const std::vector<int> initial(cores.begin(), cores.end());
  const auto dist = topology::extract_distances(m);

  Rng r1(7);
  const auto bisected = mapping::scotch_like_map(pattern, initial, r1);
  const double cost_initial = mapping::mapping_cost(pattern, initial, dist);
  const double cost_bisected = mapping::mapping_cost(pattern, bisected, dist);
  EXPECT_LT(cost_bisected, 0.8 * cost_initial);

  // Greedy packs rows: valid and not worse than the initial layout, but
  // weaker than bisection on this uniform-weight pattern.
  Rng r2(7);
  const auto greedy = mapping::greedy_graph_map(pattern, initial, dist, r2);
  EXPECT_LE(mapping::mapping_cost(pattern, greedy, dist),
            cost_initial * 1.001);
  EXPECT_LE(cost_bisected, mapping::mapping_cost(pattern, greedy, dist));
}

TEST(GeneralMapping, ScotchLikeMapsArbitraryGraph) {
  const topology::Machine m = topology::Machine::gpc(4);
  const int p = 32;
  const WeightedGraph pattern = stencil2d_pattern(8, 4);
  const auto cores = simmpi::make_layout(m, p, simmpi::LayoutSpec{});
  const std::vector<int> initial(cores.begin(), cores.end());
  Rng rng(9);
  const auto result = mapping::scotch_like_map(pattern, initial, rng);
  auto sorted_init = initial;
  auto sorted_res = result;
  std::sort(sorted_init.begin(), sorted_init.end());
  std::sort(sorted_res.begin(), sorted_res.end());
  EXPECT_EQ(sorted_init, sorted_res);
}

TEST(GeneralMapping, FrameworkReordersWithAGraphMapper) {
  const topology::Machine m = topology::Machine::gpc(4);
  core::ReorderFramework fw(m);
  const simmpi::Communicator comm(
      m, simmpi::make_layout(
             m, 32, {simmpi::NodeOrder::Cyclic, simmpi::SocketOrder::Bunch}));
  const WeightedGraph pattern = stencil2d_pattern(8, 4);
  using mapping::GraphMapper;
  const auto rc = fw.reorder_with(
      comm, GraphMapper(pattern, GraphMapper::Engine::Bisection));
  // Core set preserved, oldrank consistent.
  for (Rank j = 0; j < comm.size(); ++j)
    EXPECT_EQ(rc.comm.core_of(j), comm.core_of(rc.oldrank[j]));
  EXPECT_GE(rc.mapping_seconds, 0.0);
  // A graph whose vertex count is not the rank count is rejected.
  const WeightedGraph small = stencil2d_pattern(4, 4);
  for (auto engine : {GraphMapper::Engine::Bisection,
                      GraphMapper::Engine::Greedy})
    EXPECT_THROW(fw.reorder_with(comm, GraphMapper(small, engine)), Error);
}

TEST(GeneralMapping, MismatchedGraphRejected) {
  const topology::Machine m = topology::Machine::gpc(1);
  const auto dist = topology::extract_distances(m);
  Rng rng(1);
  EXPECT_THROW(
      mapping::greedy_graph_map(stencil2d_pattern(2, 2), {0, 1}, dist, rng),
      Error);
  EXPECT_THROW(mapping::scotch_like_map(stencil2d_pattern(2, 2), {0, 1}, rng),
               Error);
  // No ranks: the halving recursion would never reach a single rank.
  WeightedGraph empty(0);
  empty.finalize();
  EXPECT_THROW(mapping::scotch_like_map(empty, {}, rng), Error);
}

}  // namespace
}  // namespace tarr::graph
