#pragma once

#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"

/// \file bisection.hpp
/// Balanced graph bisection: the engine of the Scotch-like dual recursive
/// bipartitioning mapper.  Greedy graph growing produces an initial split;
/// a bounded swap-refinement pass (Fiduccia–Mattheyses flavored, but
/// balance-preserving via pairwise swaps) improves the cut.
///
/// Growing pops the front (unassigned vertices connected to the part) from
/// an indexed max-heap, and swap scoring reads the pair weight from a dense
/// row, so neither scans the subset per step: growing an n-vertex subset
/// with e internal edges costs O((n + e) log n), where a linear argmax per
/// absorbed vertex cost O(n²).  The heap orders by (gain descending, subset
/// index ascending), so it absorbs exactly the vertex that argmax picks.

namespace tarr::graph {

/// Result of bisecting a vertex subset: `side[i]` in {0,1} for the i-th
/// element of the input subset, and the resulting cut weight (edges internal
/// to the subset crossing the split).
struct BisectionResult {
  std::vector<int> side;
  double cut = 0.0;
};

/// Bisects vertex subsets of one finalized graph.  Its scratch arrays are
/// sized to the graph's vertex count once, at construction, so the calls
/// of one recursive bipartitioning allocate only their results.  The graph
/// must outlive the Bisector.
class Bisector {
 public:
  explicit Bisector(const WeightedGraph& g);
  explicit Bisector(WeightedGraph&&) = delete;  // it keeps a reference

  /// Split `subset` (distinct vertex ids of the graph) into a part of
  /// exactly `size0` vertices and its complement, heuristically minimizing
  /// the weight of subset-internal edges that cross.  Deterministic given
  /// `rng`'s state.  Throws tarr::Error on a bad part size or, unless the
  /// split is trivial, on a duplicate or out-of-range vertex.
  BisectionResult split(const std::vector<int>& subset, int size0, Rng& rng);

 private:
  /// Greedy graph growing: part 0's membership in `in0_`.
  void grow(const std::vector<int>& subset, int size0, Rng& rng);
  /// Pairwise swap refinement of `side`.
  void refine(const std::vector<int>& subset, std::vector<int>& side);

  /// True when local vertex a leaves the front before b.
  bool above(int a, int b) const {
    return gain_[a] > gain_[b] || (gain_[a] == gain_[b] && a < b);
  }
  /// Move the front entry at heap slot `slot` up to its place.
  void sift_up(int slot);
  /// Remove and return the front's top vertex.
  int pop_front();

  const WeightedGraph& g_;
  std::vector<int> pos_;  ///< graph vertex -> subset index; -1 between calls
  // Per-call arrays, indexed by subset position, sized to the vertex count.
  std::vector<double> gain_;  ///< connection to part 0 while growing
  std::vector<char> in0_;
  std::vector<int> heap_;     ///< the front, a binary max-heap by above()
  std::vector<int> heap_at_;  ///< local vertex -> heap slot, or -1
  std::vector<double> d_;     ///< external minus internal connection
  std::vector<double> row_;   ///< w(u, ·) of one vertex u; 0 between uses
  std::vector<int> ties_, cand0_, cand1_;
  int heap_size_ = 0;
  // Work counters of the current call.
  long long grow_steps_ = 0;
  long long swaps_ = 0;
  long long swap_evals_ = 0;
};

}  // namespace tarr::graph
