#include "mapping/comparators.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "check/mapping_verifier.hpp"
#include "common/error.hpp"
#include "graph/bisection.hpp"
#include "graph/pattern.hpp"
#include "mapping/scheme.hpp"
#include "prof/obs.hpp"

namespace tarr::mapping {

graph::WeightedGraph build_pattern_graph(Pattern pattern, int p) {
  switch (pattern) {
    case Pattern::RecursiveDoubling:
      return graph::recursive_doubling_pattern(p);
    case Pattern::Ring:
      return graph::ring_pattern(p);
    case Pattern::BinomialBcast:
      return graph::binomial_bcast_pattern(p);
    case Pattern::BinomialGather:
      return graph::binomial_gather_pattern(p);
    case Pattern::Bruck:
      return graph::bruck_pattern(p);
  }
  TARR_REQUIRE(false, "build_pattern_graph: unknown pattern");
  return graph::WeightedGraph(0);
}

MvapichCyclicMapper::MvapichCyclicMapper(int slots_per_node)
    : slots_per_node_(slots_per_node) {
  TARR_REQUIRE(slots_per_node >= 1,
               "MvapichCyclicMapper: slots_per_node must be >= 1");
}

std::vector<int> MvapichCyclicMapper::map(
    const std::vector<int>& rank_to_slot, const topology::DistanceMatrix&,
    Rng&) const {
  const int p = static_cast<int>(rank_to_slot.size());
  // Group the slot set into "nodes" of slots_per_node consecutive sorted
  // slots, then deal ranks over the groups round-robin (block -> cyclic).
  std::vector<int> sorted = rank_to_slot;
  std::sort(sorted.begin(), sorted.end());
  const int groups = (p + slots_per_node_ - 1) / slots_per_node_;
  std::vector<int> result(p);
  int r = 0;
  for (int offset = 0; offset < slots_per_node_ && r < p; ++offset) {
    for (int g = 0; g < groups && r < p; ++g) {
      const int idx = g * slots_per_node_ + offset;
      if (idx < p) result[r++] = sorted[idx];
    }
  }
  if constexpr (kSlowChecksEnabled)
    check::verify_mapping("MVAPICH-cyclic", rank_to_slot, result);
  return result;
}

std::vector<int> greedy_graph_map(const graph::WeightedGraph& g,
                                  const std::vector<int>& rank_to_slot,
                                  const topology::DistanceMatrix& d,
                                  Rng& rng) {
  TARR_REQUIRE(g.num_vertices() == static_cast<int>(rank_to_slot.size()),
               "greedy_graph_map: graph/rank size mismatch");
  MappingState st(rank_to_slot, d, rng);

  // Lazy max-heap of frontier edges (weight, mapped endpoint, candidate).
  struct Item {
    double w;
    Rank from;
    Rank to;
    bool operator<(const Item& o) const { return w < o.w; }
  };
  std::priority_queue<Item> heap;
  auto push_frontier = [&](Rank v) {
    for (const auto& nb : g.neighbors(v)) {
      if (!st.is_mapped(nb.vertex))
        heap.push(Item{nb.weight, v, nb.vertex});
    }
  };
  push_frontier(0);

  while (!st.done()) {
    Rank next = kNoRank, ref = 0;
    while (!heap.empty()) {
      const Item it = heap.top();
      heap.pop();
      if (!st.is_mapped(it.to)) {
        next = it.to;
        ref = it.from;
        break;
      }
    }
    if (next == kNoRank) next = st.first_unmapped();  // disconnected pattern
    st.map_close_to(next, ref);
    push_frontier(next);
  }
  return finish_mapping(st, "greedy-graph", rank_to_slot);
}

std::vector<int> GreedyGraphMapper::map(const std::vector<int>& rank_to_slot,
                                        const topology::DistanceMatrix& d,
                                        Rng& rng) const {
  const int p = static_cast<int>(rank_to_slot.size());
  return greedy_graph_map(build_pattern_graph(pattern_, p), rank_to_slot, d,
                          rng);
}

namespace {

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
  const graph::BisectionResult bi =
      graph::bisect_subset(g, vertices, half, rng);
  std::vector<int> left, right;
  left.reserve(half);
  right.reserve(n - half);
  for (std::size_t i = 0; i < vertices.size(); ++i)
    (bi.side[i] == 0 ? left : right).push_back(vertices[i]);
  scotch_recurse(g, std::move(left), slots, lo, lo + half, rng, result);
  scotch_recurse(g, std::move(right), slots, lo + half, hi, rng, result);
}

}  // namespace

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

std::vector<int> ScotchLikeMapper::map(const std::vector<int>& rank_to_slot,
                                       const topology::DistanceMatrix& d,
                                       Rng& rng) const {
  (void)d;  // the host side is encoded by the sorted slot hierarchy
  const int p = static_cast<int>(rank_to_slot.size());
  graph::WeightedGraph g = build_pattern_graph(pattern_, p);
  if (!use_edge_weights_) {
    graph::WeightedGraph flat(p);
    for (const auto& e : g.edges()) flat.add_edge(e.u, e.v, 1.0);
    flat.finalize();
    g = std::move(flat);
  }
  return scotch_like_map(g, rank_to_slot, rng);
}

}  // namespace tarr::mapping
