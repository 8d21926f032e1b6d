#include "mapping/comparators.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/bits.hpp"
#include "mapping/mapcost.hpp"
#include "simmpi/layout.hpp"
#include "topology/distance.hpp"

namespace tarr::mapping {
namespace {

using simmpi::LayoutSpec;
using simmpi::NodeOrder;
using simmpi::SocketOrder;
using simmpi::make_layout;
using topology::DistanceMatrix;
using topology::Machine;

struct Fixture {
  Machine machine;
  DistanceMatrix dist;
  explicit Fixture(int nodes)
      : machine(Machine::gpc(nodes)),
        dist(topology::extract_distances(machine)) {}
  std::vector<int> layout(int p, LayoutSpec spec = LayoutSpec{}) const {
    const auto cores = make_layout(machine, p, spec);
    return std::vector<int>(cores.begin(), cores.end());
  }
};

bool same_slot_set(const std::vector<int>& a, const std::vector<int>& b) {
  auto x = a;
  auto y = b;
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  return x == y;
}

TEST(MvapichCyclic, BlockBecomesCyclic) {
  Fixture f(4);
  const int p = 32;
  const auto block = f.layout(p, LayoutSpec{});
  const auto cyclic_cores = make_layout(
      f.machine, p, LayoutSpec{NodeOrder::Cyclic, SocketOrder::Bunch});
  Rng rng(1);
  MvapichCyclicMapper m(f.machine.cores_per_node());
  const auto result = m.map(block, f.dist, rng);
  EXPECT_EQ(result, std::vector<int>(cyclic_cores.begin(),
                                     cyclic_cores.end()));
}

TEST(MvapichCyclic, HandlesPartialLastNode) {
  Fixture f(2);
  const auto initial = f.layout(12, LayoutSpec{});
  Rng rng(1);
  MvapichCyclicMapper m(8);
  const auto result = m.map(initial, f.dist, rng);
  EXPECT_TRUE(same_slot_set(initial, result));
}

TEST(MvapichCyclic, IgnoresTopology) {
  // Permuting core identities (shifting the whole job to other nodes) must
  // produce the shifted cyclic layout — it never looks at distances.
  Fixture f(4);
  Rng rng(1);
  MvapichCyclicMapper m(8);
  std::vector<int> shifted(16);
  for (int i = 0; i < 16; ++i) shifted[i] = 16 + i;  // nodes 2..3
  const auto result = m.map(shifted, f.dist, rng);
  EXPECT_TRUE(same_slot_set(shifted, result));
  EXPECT_EQ(result[0], 16);
  EXPECT_EQ(result[1], 24);  // next node's first core
}

class GraphMappersValid
    : public ::testing::TestWithParam<std::tuple<Pattern, int>> {};

TEST_P(GraphMappersValid, ProducePermutations) {
  const auto [pattern, p] = GetParam();
  if (pattern == Pattern::RecursiveDoubling && !is_pow2(p)) GTEST_SKIP();
  Fixture f(8);
  const auto initial =
      f.layout(p, LayoutSpec{NodeOrder::Cyclic, SocketOrder::Scatter});

  Rng r1(5);
  GreedyGraphMapper greedy(pattern);
  EXPECT_TRUE(same_slot_set(initial, greedy.map(initial, f.dist, r1)));

  Rng r2(5);
  ScotchLikeMapper scotch(pattern);
  EXPECT_TRUE(same_slot_set(initial, scotch.map(initial, f.dist, r2)));
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, GraphMappersValid,
    ::testing::Combine(::testing::Values(Pattern::RecursiveDoubling,
                                         Pattern::Ring,
                                         Pattern::BinomialBcast,
                                         Pattern::BinomialGather,
                                         Pattern::Bruck),
                       ::testing::Values(2, 8, 15, 16, 64)));

TEST(GreedyGraphMapper, ImprovesRingOnCyclic) {
  Fixture f(4);
  const int p = 32;
  const auto initial =
      f.layout(p, LayoutSpec{NodeOrder::Cyclic, SocketOrder::Bunch});
  const auto g = build_pattern_graph(Pattern::Ring, p);
  Rng rng(5);
  GreedyGraphMapper m(Pattern::Ring);
  const auto result = m.map(initial, f.dist, rng);
  EXPECT_LT(mapping_cost(g, result, f.dist), mapping_cost(g, initial, f.dist));
}

TEST(ScotchLike, DeterministicGivenSeed) {
  Fixture f(4);
  const auto initial = f.layout(32);
  Rng a(9), b(9);
  ScotchLikeMapper m(Pattern::RecursiveDoubling);
  EXPECT_EQ(m.map(initial, f.dist, a), m.map(initial, f.dist, b));
}

TEST(ScotchLike, WeightAwareVariantBeatsStructureOnly) {
  // The ablation behind the paper's Fig 3 Scotch results: a general mapper
  // without per-stage volume weights maps recursive doubling much worse
  // than the volume-aware variant.
  Fixture f(8);
  const int p = 64;
  const auto initial = f.layout(p);
  const auto g = build_pattern_graph(Pattern::RecursiveDoubling, p);

  Rng r1(21);
  ScotchLikeMapper structural(Pattern::RecursiveDoubling,
                              /*use_edge_weights=*/false);
  const double cost_structural =
      mapping_cost(g, structural.map(initial, f.dist, r1), f.dist);

  Rng r2(21);
  ScotchLikeMapper weighted(Pattern::RecursiveDoubling,
                            /*use_edge_weights=*/true);
  const double cost_weighted =
      mapping_cost(g, weighted.map(initial, f.dist, r2), f.dist);

  EXPECT_LT(cost_weighted, cost_structural);
}

TEST(BuildPatternGraph, DispatchesAllPatterns) {
  EXPECT_EQ(build_pattern_graph(Pattern::RecursiveDoubling, 8).num_edges(),
            8 * 3 / 2);
  EXPECT_EQ(build_pattern_graph(Pattern::Ring, 8).num_edges(), 8);
  EXPECT_EQ(build_pattern_graph(Pattern::BinomialBcast, 8).num_edges(), 7);
  EXPECT_EQ(build_pattern_graph(Pattern::BinomialGather, 8).num_edges(), 7);
  EXPECT_GT(build_pattern_graph(Pattern::Bruck, 8).num_edges(), 0);
}

TEST(Factories, ProduceNamedMappers) {
  EXPECT_EQ(make_mvapich_cyclic_mapper(8)->name(), "mvapich-cyclic");
  EXPECT_EQ(make_greedy_graph_mapper(Pattern::Ring)->name(), "greedy-graph");
  EXPECT_EQ(make_scotch_like_mapper(Pattern::Ring)->name(), "scotch-like");
}

}  // namespace
}  // namespace tarr::mapping
