// Differential oracle for the Scotch-like bisection.  graph::Bisector grows
// part 0 by popping a heap of the front and scores each swap pair from a
// dense row of u's weights; the bisection it replaced, copied here as it
// was, scanned the whole subset for every absorbed vertex and walked u's
// neighbors for every candidate pair.  Both run from identically seeded
// RNGs over the same subsets and must return the same sides and a
// bit-equal cut, and leave their RNGs in the same state.  Whole Scotch-like
// mappings, through a copy of the old recursion, must match too, with the
// same bisection calls, refinement swaps and swap evaluations.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "check/mapping_verifier.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/framework.hpp"
#include "graph/apppattern.hpp"
#include "graph/bisection.hpp"
#include "mapping/comparators.hpp"
#include "prof/obs.hpp"
#include "prof/profiler.hpp"
#include "simmpi/layout.hpp"

namespace tarr {
namespace {

using graph::BisectionResult;
using graph::Bisector;
using graph::WeightedGraph;

namespace old_code {

using namespace tarr::graph;

constexpr int kRefinePasses = 8;
constexpr int kCandidateWindow = 64;

/// Dense helper state for one bisection call.  Vertex ids are translated to
/// subset-local positions once so all hot loops are array-indexed.
struct LocalView {
  const WeightedGraph& g;
  const std::vector<int>& subset;
  std::vector<int> pos;  // global vertex -> local position or -1

  LocalView(const WeightedGraph& graph, const std::vector<int>& sub)
      : g(graph), subset(sub), pos(graph.num_vertices(), -1) {
    for (std::size_t i = 0; i < sub.size(); ++i) {
      TARR_REQUIRE(pos[sub[i]] == -1, "bisect_subset: duplicate vertex");
      pos[sub[i]] = static_cast<int>(i);
    }
  }
};

/// Connection weight of local vertex i to the given side, within the subset.
double side_connection(const LocalView& lv, const std::vector<int>& side,
                       int i, int which) {
  double w = 0.0;
  for (const auto& nb : lv.g.neighbors(lv.subset[i])) {
    const int j = lv.pos[nb.vertex];
    if (j >= 0 && side[j] == which) w += nb.weight;
  }
  return w;
}

BisectionResult bisect_subset(const WeightedGraph& g,
                              const std::vector<int>& subset, int size0,
                              Rng& rng) {
  const int n = static_cast<int>(subset.size());
  TARR_REQUIRE(g.finalized(), "bisect_subset: graph not finalized");
  TARR_REQUIRE(size0 >= 0 && size0 <= n, "bisect_subset: bad part size");
  prof::ProfScope pscope("bisect");

  BisectionResult res;
  res.side.assign(n, 1);
  if (size0 == 0 || size0 == n) {
    std::fill(res.side.begin(), res.side.end(), size0 == n ? 0 : 1);
    res.cut = 0.0;
    return res;
  }

  LocalView lv(g, subset);

  // --- Greedy graph growing -------------------------------------------------
  // Seed part 0 from the heaviest subset vertex (random among ties), then
  // repeatedly absorb the unassigned vertex with the strongest connection to
  // part 0; unconnected front -> random unassigned vertex.
  std::vector<double> gain(n, 0.0);  // connection to part 0
  std::vector<char> in0(n, 0);

  int seed = 0;
  {
    double best = -1.0;
    std::vector<int> ties;
    for (int i = 0; i < n; ++i) {
      const double wd = g.weighted_degree(subset[i]);
      if (wd > best) {
        best = wd;
        ties.assign(1, i);
      } else if (wd == best) {
        ties.push_back(i);
      }
    }
    seed = ties[rng.next_below(ties.size())];
  }

  auto absorb = [&](int i) {
    in0[i] = 1;
    for (const auto& nb : g.neighbors(subset[i])) {
      const int j = lv.pos[nb.vertex];
      if (j >= 0 && !in0[j]) gain[j] += nb.weight;
    }
  };
  absorb(seed);
  long long grow_steps = 0;  // vertices examined by the growing loop
  for (int filled = 1; filled < size0; ++filled) {
    int best = -1;
    double best_gain = -1.0;
    grow_steps += n;
    for (int i = 0; i < n; ++i) {
      if (!in0[i]) {
        if (gain[i] > best_gain) {
          best_gain = gain[i];
          best = i;
        }
      }
    }
    if (best_gain <= 0.0) {
      // Disconnected front: pick a random unassigned vertex.
      grow_steps += n;
      std::vector<int> free;
      for (int i = 0; i < n; ++i)
        if (!in0[i]) free.push_back(i);
      best = free[rng.next_below(free.size())];
    }
    absorb(best);
  }
  for (int i = 0; i < n; ++i) res.side[i] = in0[i] ? 0 : 1;

  // --- Pairwise swap refinement ----------------------------------------------
  // D[i] = external - internal connection.  Swapping (u in 0, v in 1) changes
  // the cut by -(D[u] + D[v] - 2 w(u,v)); accept best positive-gain swap from
  // a bounded candidate window, repeat for a few passes.
  long long swaps = 0;
  long long swap_evals = 0;  // candidate pairs scored (the FM-style inner loop)
  std::vector<double> d(n);
  auto recompute_d = [&](int i) {
    const int s = res.side[i];
    d[i] = side_connection(lv, res.side, i, 1 - s) -
           side_connection(lv, res.side, i, s);
  };
  for (int pass = 0; pass < kRefinePasses; ++pass) {
    for (int i = 0; i < n; ++i) recompute_d(i);
    std::vector<int> cand0, cand1;
    for (int i = 0; i < n; ++i) (res.side[i] == 0 ? cand0 : cand1).push_back(i);
    auto by_d = [&](int a, int b) { return d[a] > d[b]; };
    std::sort(cand0.begin(), cand0.end(), by_d);
    std::sort(cand1.begin(), cand1.end(), by_d);
    const int w0 = std::min<int>(kCandidateWindow, cand0.size());
    const int w1 = std::min<int>(kCandidateWindow, cand1.size());

    bool improved = false;
    for (int iter = 0; iter < n; ++iter) {
      double best_gain = 0.0;
      int bu = -1, bv = -1;
      swap_evals += static_cast<long long>(w0) * w1;
      for (int a = 0; a < w0; ++a) {
        for (int b = 0; b < w1; ++b) {
          const int u = cand0[a], v = cand1[b];
          double wuv = 0.0;
          for (const auto& nb : g.neighbors(subset[u])) {
            const int j = lv.pos[nb.vertex];
            if (j == v) wuv = nb.weight;
          }
          const double swap_gain = d[u] + d[v] - 2.0 * wuv;
          if (swap_gain > best_gain + 1e-12) {
            best_gain = swap_gain;
            bu = u;
            bv = v;
          }
        }
      }
      if (bu < 0) break;
      std::swap(res.side[bu], res.side[bv]);
      improved = true;
      ++swaps;
      // Refresh D locally: the swapped pair and their subset neighbors.
      recompute_d(bu);
      recompute_d(bv);
      for (const auto& nb : g.neighbors(subset[bu])) {
        const int j = lv.pos[nb.vertex];
        if (j >= 0) recompute_d(j);
      }
      for (const auto& nb : g.neighbors(subset[bv])) {
        const int j = lv.pos[nb.vertex];
        if (j >= 0) recompute_d(j);
      }
      // Window lists keep their order; stale entries only cost missed gains.
    }
    if (!improved) break;
  }

  // Cut of the subset-internal edges.
  double cut = 0.0;
  for (int i = 0; i < n; ++i) {
    if (res.side[i] != 0) continue;
    for (const auto& nb : g.neighbors(subset[i])) {
      const int j = lv.pos[nb.vertex];
      if (j >= 0 && res.side[j] == 1) cut += nb.weight;
    }
  }
  res.cut = cut;
  obs::count("bisection.calls");
  obs::count("bisection.refine_swaps", static_cast<double>(swaps));
  prof::count("bisection.grow_steps", static_cast<double>(grow_steps));
  prof::count("bisection.swap_evals", static_cast<double>(swap_evals));
  return res;
}

/// Dual recursive bipartitioning: split the slot interval in half, bisect
/// the vertex subset to match, recurse.  Slot ids sorted ascending encode
/// the host hierarchy (node-major core numbering), as in a Scotch tleaf.
void scotch_recurse(const graph::WeightedGraph& g, std::vector<int> vertices,
                    const std::vector<int>& slots, int lo, int hi,
                    Rng& rng, std::vector<int>& result) {
  const int n = hi - lo;
  if (n == 1) {
    result[vertices[0]] = slots[lo];
    return;
  }
  const int half = n / 2;
  const graph::BisectionResult bi = bisect_subset(g, vertices, half, rng);
  std::vector<int> left, right;
  left.reserve(half);
  right.reserve(n - half);
  for (std::size_t i = 0; i < vertices.size(); ++i)
    (bi.side[i] == 0 ? left : right).push_back(vertices[i]);
  scotch_recurse(g, std::move(left), slots, lo, lo + half, rng, result);
  scotch_recurse(g, std::move(right), slots, lo + half, hi, rng, result);
}

std::vector<int> scotch_like_map(const graph::WeightedGraph& g,
                                 const std::vector<int>& rank_to_slot,
                                 Rng& rng) {
  const int p = static_cast<int>(rank_to_slot.size());
  TARR_REQUIRE(g.num_vertices() == p,
               "scotch_like_map: graph/rank size mismatch");
  std::vector<int> slots = rank_to_slot;
  std::sort(slots.begin(), slots.end());
  std::vector<int> vertices(p);
  for (int i = 0; i < p; ++i) vertices[i] = i;
  std::vector<int> result(p, -1);
  // Depth of the dual recursive bipartitioning (Fig 7 overhead driver).
  int levels = 0;
  for (int n = p; n > 1; n = (n + 1) / 2) ++levels;
  obs::count("bisection.levels", static_cast<double>(levels));
  scotch_recurse(g, std::move(vertices), slots, 0, p, rng, result);
  if constexpr (kSlowChecksEnabled)
    check::verify_mapping("scotch-like", rank_to_slot, result);
  return result;
}

}  // namespace old_code

/// A graph with the edges of `g` at weight 1: the Scotch-like mapper's
/// default, structure-only view of a pattern.
WeightedGraph flat(const WeightedGraph& g) {
  WeightedGraph f(g.num_vertices());
  for (const auto& e : g.edges()) f.add_edge(e.u, e.v, 1.0);
  f.finalize();
  return f;
}

/// `n` vertices and `m` random edges.  Integer weights in [1, max_int]
/// make many gains and D values tie; max_int = 0 draws real weights.
/// Vertices at or above `connected` get no edges.
WeightedGraph random_graph(int n, int m, int max_int, std::uint64_t seed,
                           int connected = -1) {
  if (connected < 0) connected = n;
  Rng rng(seed);
  WeightedGraph g(n);
  for (int e = 0; e < m; ++e) {
    const int u = static_cast<int>(rng.next_below(connected));
    const int v = static_cast<int>(rng.next_below(connected));
    if (u == v) continue;
    const double w = max_int > 0
                         ? static_cast<double>(1 + rng.next_below(max_int))
                         : 0.01 + rng.next_double() * 10.0;
    g.add_edge(u, v, w);
  }
  g.finalize();
  return g;
}

/// `parts` disjoint copies of a path with one chord, `size` vertices each.
WeightedGraph components(int parts, int size) {
  WeightedGraph g(parts * size);
  for (int c = 0; c < parts; ++c) {
    const int base = c * size;
    for (int i = 0; i + 1 < size; ++i) g.add_edge(base + i, base + i + 1, 2.0);
    if (size > 3) g.add_edge(base, base + size - 1, 1.0);
  }
  g.finalize();
  return g;
}

std::vector<int> iota_subset(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

/// `k` distinct vertices of [0, n), in random order.
std::vector<int> random_subset(int n, int k, Rng& rng) {
  std::vector<int> v = iota_subset(n);
  for (int i = 0; i < k; ++i)
    std::swap(v[i], v[i + static_cast<int>(rng.next_below(n - i))]);
  v.resize(k);
  return v;
}

/// Old and new bisection of one subset from the same seed.
void expect_same_split(Bisector& bisector, const WeightedGraph& g,
                       const std::vector<int>& subset, int size0,
                       std::uint64_t seed, const std::string& what) {
  Rng a(seed), b(seed);
  const BisectionResult expected = old_code::bisect_subset(g, subset, size0, a);
  const BisectionResult got = bisector.split(subset, size0, b);
  ASSERT_EQ(got.side, expected.side) << what << " size0=" << size0;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cut),
            std::bit_cast<std::uint64_t>(expected.cut))
      << what << " size0=" << size0;
  EXPECT_EQ(b.next_u64(), a.next_u64()) << what << " size0=" << size0;
}

/// The whole subset at its halves, and `subsets` random subsets at random
/// sizes.
void expect_same_splits(const WeightedGraph& g, std::uint64_t seed,
                        const std::string& what, int subsets = 4) {
  const int n = g.num_vertices();
  Bisector bisector(g);
  expect_same_split(bisector, g, iota_subset(n), n / 2, seed, what);
  expect_same_split(bisector, g, iota_subset(n), (n + 1) / 2, seed + 1, what);
  Rng pick(seed);
  for (int t = 0; t < subsets && n >= 2; ++t) {
    const int k = 2 + static_cast<int>(pick.next_below(n - 1));
    const auto subset = random_subset(n, k, pick);
    const int size0 = 1 + static_cast<int>(pick.next_below(k - 1));
    expect_same_split(bisector, g, subset, size0, seed + 2 + t,
                      what + " subset " + std::to_string(t));
  }
}

constexpr mapping::Pattern kPatterns[] = {
    mapping::Pattern::RecursiveDoubling, mapping::Pattern::Ring,
    mapping::Pattern::BinomialBcast, mapping::Pattern::BinomialGather,
    mapping::Pattern::Bruck};

bool builds(mapping::Pattern pattern, int p) {
  return pattern != mapping::Pattern::RecursiveDoubling || (p & (p - 1)) == 0;
}

TEST(BisectionOracle, PatternGraphsFlatAndWeighted) {
  for (const int p : {2, 3, 5, 8, 31, 64, 100, 512, 1000})
    for (const auto pattern : kPatterns) {
      if (!builds(pattern, p)) continue;
      const WeightedGraph weighted = mapping::build_pattern_graph(pattern, p);
      const std::string what =
          std::string(mapping::to_string(pattern)) + " p=" + std::to_string(p);
      const int subsets = p < 512 ? 4 : 1;
      expect_same_splits(weighted, 7 + p, what + " weighted", subsets);
      expect_same_splits(flat(weighted), 11 + p, what + " flat", subsets);
    }
}

TEST(BisectionOracle, RandomGraphsWithTiedAndRealWeights) {
  for (const int n : {6, 17, 40, 128})
    for (const int max_int : {1, 3, 0})
      for (const int degree : {1, 3, 8}) {
        const WeightedGraph g =
            random_graph(n, degree * n / 2, max_int, 100 * n + degree);
        expect_same_splits(g, 3 * n + max_int,
                           "random n=" + std::to_string(n) +
                               " w=" + std::to_string(max_int) +
                               " deg=" + std::to_string(degree));
      }
}

TEST(BisectionOracle, IsolatedVerticesAndComponentsDriveTheFallback) {
  // Half the vertices isolated, or many small components: growing runs out
  // of front and draws the next vertex from the free ones.
  for (const int n : {10, 64, 257}) {
    expect_same_splits(random_graph(n, n, 2, n, n / 2), n,
                       "isolated n=" + std::to_string(n));
    expect_same_splits(random_graph(n, 2 * n, 0, n + 1, n / 3), n + 5,
                       "isolated real n=" + std::to_string(n));
  }
  for (const int size : {2, 3, 5, 16})
    expect_same_splits(components(9, size), size,
                       "components size=" + std::to_string(size));
  WeightedGraph edgeless(12);
  edgeless.finalize();
  expect_same_splits(edgeless, 5, "edgeless");
}

TEST(BisectionOracle, StencilPatterns) {
  for (const auto& [nx, ny] : {std::pair{2, 3}, {5, 5}, {8, 4}, {16, 16},
                              {31, 7}, {64, 16}})
    for (const double w : {1.0, 2.5}) {
      const WeightedGraph g = graph::stencil2d_pattern(nx, ny, w);
      expect_same_splits(g, nx * 100 + ny, "stencil " + std::to_string(nx) +
                                               "x" + std::to_string(ny));
    }
}

TEST(BisectionOracle, EverySizeOnSmallGraphs) {
  const WeightedGraph graphs[] = {
      mapping::build_pattern_graph(mapping::Pattern::Bruck, 11),
      flat(mapping::build_pattern_graph(mapping::Pattern::BinomialGather, 13)),
      random_graph(12, 10, 2, 5, 9),
      random_graph(15, 30, 0, 6),
      components(4, 3),
      graph::stencil2d_pattern(3, 5),
  };
  for (const WeightedGraph& g : graphs) {
    const int n = g.num_vertices();
    Bisector bisector(g);
    Rng pick(n);
    for (int size0 = 0; size0 <= n; ++size0) {
      expect_same_split(bisector, g, iota_subset(n), size0, 40 + size0,
                        "n=" + std::to_string(n));
      const auto shuffled = random_subset(n, n, pick);
      expect_same_split(bisector, g, shuffled, size0, 90 + size0,
                        "shuffled n=" + std::to_string(n));
      const auto part = random_subset(n, n - 2, pick);
      if (size0 <= n - 2)
        expect_same_split(bisector, g, part, size0, 70 + size0,
                          "part n=" + std::to_string(n));
    }
  }
}

TEST(BisectionOracle, RejectedDuplicateLeavesTheBisectorClean) {
  // The duplicate is found after the subset's first vertices were mapped;
  // the next split must not see them.
  const WeightedGraph g =
      mapping::build_pattern_graph(mapping::Pattern::Ring, 9);
  Bisector bisector(g);
  Rng rng(1);
  EXPECT_THROW(bisector.split({4, 5, 6, 5}, 2, rng), Error);
  EXPECT_THROW(bisector.split({4, 5, 9}, 2, rng), Error);
  EXPECT_THROW(bisector.split({4, -1}, 1, rng), Error);
  expect_same_split(bisector, g, {6, 5, 4, 3}, 2, 3, "after rejects");
  expect_same_split(bisector, g, iota_subset(9), 4, 4, "after rejects");
}

/// Old and new Scotch-like mapping from the same seed, with their
/// bisection counters.
void expect_same_mapping(const WeightedGraph& g,
                         const std::vector<int>& rank_to_slot,
                         std::uint64_t seed, const std::string& what) {
  Rng a(seed), b(seed);
  prof::Profiler old_prof, new_prof;
  std::vector<int> expected, got;
  {
    obs::Install guard(&old_prof);
    expected = old_code::scotch_like_map(g, rank_to_slot, a);
  }
  {
    obs::Install guard(&new_prof);
    got = mapping::scotch_like_map(g, rank_to_slot, b);
  }
  ASSERT_EQ(got, expected) << what;
  EXPECT_EQ(b.next_u64(), a.next_u64()) << what;
  const prof::Profile before = old_prof.snapshot();
  const prof::Profile after = new_prof.snapshot();
  for (const char* counter :
       {"bisection.calls", "bisection.levels", "bisection.refine_swaps",
        "bisection.swap_evals"})
    EXPECT_EQ(after.counter_total(counter), before.counter_total(counter))
        << what << " " << counter;
  EXPECT_LE(after.counter_total("bisection.grow_steps"),
            before.counter_total("bisection.grow_steps"))
      << what;
}

TEST(BisectionOracle, ScotchLikeMappingsAt512And4096) {
  for (const int p : {512, 4096}) {
    // Slots: every other core of a 2p-core machine, in shuffled order.
    Rng shuffle(p);
    std::vector<int> slots(p);
    for (int i = 0; i < p; ++i) slots[i] = 2 * i + (i % 3 == 0);
    for (int i = p - 1; i > 0; --i)
      std::swap(slots[i], slots[shuffle.next_below(i + 1)]);
    for (const auto pattern : kPatterns) {
      const WeightedGraph weighted = mapping::build_pattern_graph(pattern, p);
      const std::string what =
          std::string(mapping::to_string(pattern)) + " p=" + std::to_string(p);
      expect_same_mapping(flat(weighted), slots, 1, what + " flat");
      expect_same_mapping(weighted, slots, 2, what + " weighted");
    }
  }
}

TEST(BisectionOracle, GraphMapperBisectionOnAStencil) {
  const topology::Machine m = topology::Machine::gpc(64);
  core::ReorderFramework fw(m);
  const WeightedGraph pattern = graph::stencil2d_pattern(32, 16);
  for (const auto& spec : simmpi::all_layouts()) {
    const simmpi::Communicator comm(m, simmpi::make_layout(m, 512, spec));
    const auto rc = fw.reorder_with(
        comm, mapping::GraphMapper(pattern,
                                   mapping::GraphMapper::Engine::Bisection));
    Rng rng(fw.seed());
    const std::vector<int> initial(comm.rank_to_core().begin(),
                                   comm.rank_to_core().end());
    const std::vector<int> reordered(rc.comm.rank_to_core().begin(),
                                     rc.comm.rank_to_core().end());
    EXPECT_EQ(reordered, old_code::scotch_like_map(pattern, initial, rng))
        << simmpi::to_string(spec);
  }
}

}  // namespace
}  // namespace tarr
