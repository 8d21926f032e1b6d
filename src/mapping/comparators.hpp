#pragma once

#include "graph/graph.hpp"
#include "mapping/mapper.hpp"

/// \file comparators.hpp
/// The baselines the paper evaluates against besides no reordering at all:
/// MVAPICH's topology-blind block-to-cyclic reorder, a Hoefler-Snir-style
/// greedy graph mapper, and a Scotch-like dual recursive bipartitioning
/// mapper.  Unlike the fine-tuned heuristics, the two graph mappers must
/// first *build* the process-topology graph of the collective — the
/// overhead the paper's Fig 7b attributes to general-purpose mapping.

namespace tarr::mapping {

/// Build the communication-pattern graph of `pattern` for p ranks (the
/// explicit guest graph a general-purpose mapper consumes).
graph::WeightedGraph build_pattern_graph(Pattern pattern, int p);

/// Greedy graph mapping of an arbitrary communication graph (the "general
/// forms of topology-aware mapping" of §V: heaviest frontier edge first,
/// unmapped endpoint placed closest to the mapped one).  `g` must have
/// exactly rank_to_slot.size() vertices.
std::vector<int> greedy_graph_map(const graph::WeightedGraph& g,
                                  const std::vector<int>& rank_to_slot,
                                  const topology::DistanceMatrix& d,
                                  Rng& rng);

/// Dual recursive bipartitioning of an arbitrary communication graph onto
/// the slot hierarchy (sorted slot ids).
std::vector<int> scotch_like_map(const graph::WeightedGraph& g,
                                 const std::vector<int>& rank_to_slot,
                                 Rng& rng);

/// MVAPICH's recursive-doubling "reordering": rewrite a block layout into a
/// cyclic one.  It consults neither the distance matrix nor the initial
/// mapping beyond grouping slots into nodes — the paper's point of contrast
/// with RDMH.
class MvapichCyclicMapper : public Mapper {
 public:
  explicit MvapichCyclicMapper(int slots_per_node);
  std::string name() const override { return "mvapich-cyclic"; }
  std::vector<int> map(const std::vector<int>& rank_to_slot,
                       const topology::DistanceMatrix& d,
                       Rng& rng) const override;

 private:
  int slots_per_node_;
};

/// Greedy graph mapping in the style of Hoefler & Snir: repeatedly take the
/// heaviest pattern edge with exactly one mapped endpoint and place the
/// other endpoint as close as possible to it.
class GreedyGraphMapper : public Mapper {
 public:
  explicit GreedyGraphMapper(Pattern pattern) : pattern_(pattern) {}
  std::string name() const override { return "greedy-graph"; }
  std::vector<int> map(const std::vector<int>& rank_to_slot,
                       const topology::DistanceMatrix& d,
                       Rng& rng) const override;

 private:
  Pattern pattern_;
};

/// Scotch-like mapper: dual recursive bipartitioning of the pattern graph
/// onto the slot hierarchy (slots sorted by id encode the machine tree,
/// exactly like a Scotch "tleaf" architecture).
///
/// By default the bipartitioning is driven by the graph *structure* only
/// (`use_edge_weights = false`): a general-purpose mapper has no notion of
/// which stage of the collective an edge belongs to, and on a recursive-
/// doubling hypercube every dimension cut looks identical without volume
/// weights, so the mapper routinely severs the heavy last-stage pairs —
/// reproducing the poor Scotch mappings of the paper's Fig 3.  Setting
/// `use_edge_weights = true` gives the idealized volume-aware variant (the
/// abl_scotch_weights ablation contrasts the two).
class ScotchLikeMapper : public Mapper {
 public:
  explicit ScotchLikeMapper(Pattern pattern, bool use_edge_weights = false)
      : pattern_(pattern), use_edge_weights_(use_edge_weights) {}
  std::string name() const override { return "scotch-like"; }
  std::vector<int> map(const std::vector<int>& rank_to_slot,
                       const topology::DistanceMatrix& d,
                       Rng& rng) const override;

 private:
  Pattern pattern_;
  bool use_edge_weights_;
};

}  // namespace tarr::mapping
