#pragma once

#include <vector>

#include "common/types.hpp"

/// \file graph.hpp
/// Undirected weighted graph used to describe process topologies
/// (communication patterns).  This is the "process topology graph" the paper
/// says a general-purpose mapper such as Scotch must build before mapping —
/// and which the fine-tuned heuristics deliberately avoid.

namespace tarr::graph {

/// One undirected weighted edge.
struct Edge {
  int u = 0;
  int v = 0;
  double w = 1.0;
};

/// Undirected weighted graph with O(1) neighbor iteration after finalize().
/// Parallel edges added before finalize() are merged by summing weights.
class WeightedGraph {
 public:
  explicit WeightedGraph(int num_vertices = 0);

  int num_vertices() const { return n_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  /// Add (or accumulate onto) the undirected edge {u, v}.  Self-loops are
  /// rejected.  Must be called before finalize().
  void add_edge(int u, int v, double w = 1.0);

  /// Merge duplicates and build the adjacency index.  Idempotent.
  void finalize();
  bool finalized() const { return finalized_; }

  /// Neighbor entry: the other endpoint and the edge weight.
  struct Neighbor {
    int vertex;
    double weight;
  };

  /// Neighbors of u (requires finalize()).
  const std::vector<Neighbor>& neighbors(int u) const;

  /// All merged edges (requires finalize()).
  const std::vector<Edge>& edges() const;

  /// Sum of weights of edges incident to u (requires finalize()).
  double weighted_degree(int u) const;

  /// Set every edge weight to 1 in place (requires finalize()): the
  /// structure-only graph, with the same edges and adjacency order, equal
  /// to re-adding each merged edge with weight 1 and finalizing again.
  void set_unit_weights();

 private:
  int n_;
  bool finalized_ = false;
  std::vector<Edge> edges_;
  std::vector<std::vector<Neighbor>> adj_;
  std::vector<double> wdeg_;
};

}  // namespace tarr::graph
