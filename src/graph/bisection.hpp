#pragma once

#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

/// \file bisection.hpp
/// Balanced graph bisection: the engine of the Scotch-like dual recursive
/// bipartitioning mapper.  Greedy graph growing produces an initial split;
/// a bounded swap-refinement pass (Fiduccia–Mattheyses flavored, but
/// balance-preserving via pairwise swaps) improves the cut.

namespace tarr::graph {

/// Result of bisecting a vertex subset: `side[i]` in {0,1} for the i-th
/// element of the input subset, and the resulting cut weight (edges internal
/// to the subset crossing the split).
struct BisectionResult {
  std::vector<int> side;
  double cut = 0.0;
};

/// Split `subset` (distinct vertex ids of g) into a part of exactly `size0`
/// vertices and its complement, heuristically minimizing the weight of
/// subset-internal edges that cross.  Deterministic given `rng`'s state.
BisectionResult bisect_subset(const WeightedGraph& g,
                              const std::vector<int>& subset, int size0,
                              Rng& rng);

}  // namespace tarr::graph
