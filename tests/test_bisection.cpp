#include "graph/bisection.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"
#include "graph/pattern.hpp"

namespace tarr::graph {
namespace {

std::vector<int> iota_subset(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

int side_count(const BisectionResult& r, int side) {
  int c = 0;
  for (int s : r.side) c += s == side;
  return c;
}

TEST(Bisection, ExactPartSizes) {
  const WeightedGraph g = ring_pattern(10);
  Rng rng(1);
  for (int size0 : {0, 1, 3, 5, 9, 10}) {
    const auto r = Bisector(g).split(iota_subset(10), size0, rng);
    EXPECT_EQ(side_count(r, 0), size0);
    EXPECT_EQ(side_count(r, 1), 10 - size0);
  }
}

TEST(Bisection, RingCutIsSmall) {
  // A balanced bisection of a cycle has an optimal cut of 2 edges; the
  // heuristic should get close.
  const WeightedGraph g = ring_pattern(32);
  Rng rng(7);
  const auto r = Bisector(g).split(iota_subset(32), 16, rng);
  // Cut weight in units of the ring edge weight (31 per edge).
  EXPECT_LE(r.cut, 4 * 31.0);
}

TEST(Bisection, TwoCliquesSplitPerfectly) {
  // Two 4-cliques joined by one light edge: the optimal bisection cuts only
  // the bridge.
  WeightedGraph g(8);
  for (int base : {0, 4}) {
    for (int i = 0; i < 4; ++i)
      for (int j = i + 1; j < 4; ++j) g.add_edge(base + i, base + j, 10.0);
  }
  g.add_edge(0, 4, 1.0);
  g.finalize();
  Rng rng(3);
  const auto r = Bisector(g).split(iota_subset(8), 4, rng);
  EXPECT_DOUBLE_EQ(r.cut, 1.0);
  // The two cliques must land on opposite sides.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(r.side[i], r.side[0]);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(r.side[i], r.side[4]);
  EXPECT_NE(r.side[0], r.side[4]);
}

TEST(Bisection, ReportedCutMatchesRecount) {
  const WeightedGraph g = recursive_doubling_pattern(16);
  Rng rng(5);
  const auto subset = iota_subset(16);
  const auto r = Bisector(g).split(subset, 8, rng);
  double cut = 0;
  for (const auto& e : g.edges())
    if (r.side[e.u] != r.side[e.v]) cut += e.w;
  EXPECT_DOUBLE_EQ(cut, r.cut);
}

TEST(Bisection, WorksOnSubsets) {
  const WeightedGraph g = ring_pattern(12);
  Rng rng(9);
  const std::vector<int> subset{2, 3, 4, 5, 8, 9};
  const auto r = Bisector(g).split(subset, 3, rng);
  EXPECT_EQ(r.side.size(), subset.size());
  EXPECT_EQ(side_count(r, 0), 3);
}

TEST(Bisection, DeterministicGivenSeed) {
  const WeightedGraph g = recursive_doubling_pattern(32);
  Rng a(42), b(42);
  const auto r1 = Bisector(g).split(iota_subset(32), 16, a);
  const auto r2 = Bisector(g).split(iota_subset(32), 16, b);
  EXPECT_EQ(r1.side, r2.side);
  EXPECT_EQ(r1.cut, r2.cut);
}

TEST(Bisection, DuplicateVertexRejected) {
  const WeightedGraph g = ring_pattern(4);
  Rng rng(1);
  EXPECT_THROW(Bisector(g).split({0, 0, 1}, 1, rng), Error);
}

TEST(Bisection, BadSizeRejected) {
  const WeightedGraph g = ring_pattern(4);
  Rng rng(1);
  EXPECT_THROW(Bisector(g).split(iota_subset(4), 5, rng), Error);
  EXPECT_THROW(Bisector(g).split(iota_subset(4), -1, rng), Error);
}

TEST(Bisection, EqualGainsGrowTheLowestLocalIndexFirst) {
  // A star (center 0, leaves 1-4) with a path 4-5-6-7, listed out of vertex
  // order.  The center seeds part 0 and leaves its four leaves at equal
  // gain; growing takes the two of lowest subset index, vertices 3 (index
  // 1) and 1 (index 4), and refinement keeps the cut of 2.  Recorded from
  // the linear-scan growing the heap replaced.
  WeightedGraph g(8);
  for (int leaf = 1; leaf <= 4; ++leaf) g.add_edge(0, leaf, 1.0);
  for (int v = 4; v < 7; ++v) g.add_edge(v, v + 1, 1.0);
  g.finalize();
  Rng rng(1);
  const auto r = Bisector(g).split({5, 3, 0, 6, 1, 4, 2, 7}, 3, rng);
  EXPECT_EQ(r.side, (std::vector<int>{1, 0, 0, 1, 0, 1, 1, 1}));
  EXPECT_EQ(r.cut, 2.0);
  EXPECT_EQ(rng.next_u64(), 9600361134598540522ull);
}

TEST(Bisection, DisconnectedFrontTakesTheKthFreeVertexInIndexOrder) {
  // A triangle {2, 5, 7} and seven isolated vertices.  Growing absorbs the
  // triangle, then draws k < free count three times and takes the k-th
  // unassigned vertex in subset-index order.  No swap improves a zero
  // cut, so the sides show the draws.  Recorded from the linear-scan
  // growing the heap replaced.
  WeightedGraph g(10);
  g.add_edge(2, 5, 1.0);
  g.add_edge(5, 7, 1.0);
  g.add_edge(2, 7, 1.0);
  g.finalize();
  const std::vector<int> subset{9, 2, 0, 5, 8, 1, 7, 3, 6, 4};
  const std::vector<int> expected[] = {{1, 0, 1, 0, 0, 1, 0, 0, 1, 0},
                                       {0, 0, 1, 0, 1, 1, 0, 0, 0, 1},
                                       {1, 0, 1, 0, 0, 1, 0, 1, 0, 0}};
  Bisector bisector(g);
  for (int seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const auto r = bisector.split(subset, 6, rng);
    EXPECT_EQ(r.side, expected[seed - 1]) << "seed " << seed;
    EXPECT_EQ(r.cut, 0.0);
  }
}

class BisectionBalance : public ::testing::TestWithParam<int> {};

TEST_P(BisectionBalance, HalvesOfRdGraph) {
  const int p = GetParam();
  const WeightedGraph g = recursive_doubling_pattern(p);
  Rng rng(11);
  const auto r = Bisector(g).split(iota_subset(p), p / 2, rng);
  EXPECT_EQ(side_count(r, 0), p / 2);
  EXPECT_GT(r.cut, 0.0);  // the hypercube has no zero-cut bisection
}

INSTANTIATE_TEST_SUITE_P(Sizes, BisectionBalance,
                         ::testing::Values(4, 8, 16, 64, 256));

}  // namespace
}  // namespace tarr::graph
