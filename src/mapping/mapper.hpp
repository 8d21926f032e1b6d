#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "topology/distance.hpp"

/// \file mapper.hpp
/// The mapping interface shared by the paper's fine-tuned heuristics and the
/// general-purpose comparators.
///
/// A mapper receives (a) the *initial* assignment of ranks to slots and
/// (b) the physical distance matrix over the slot universe, and returns a
/// new assignment `M` with `M[new_rank] = slot`: the process currently on
/// that slot will adopt rank `new_rank` in the reordered communicator.
///
/// "Slot" is deliberately abstract: for the non-hierarchical path a slot is
/// a global core id; for the hierarchical path the same heuristics run once
/// over nodes (leader communicator, slots = node ids) and once over a node's
/// cores (intra-node communicator, slots = node-local core ids).  This is
/// exactly the two-level application described in the paper.

namespace tarr::mapping {

/// Communication patterns for which fine-tuned heuristics exist.
enum class Pattern {
  RecursiveDoubling,  ///< RDMH (Algorithm 2)
  Ring,               ///< RMH  (Algorithm 3)
  BinomialBcast,      ///< BBMH (Algorithm 4)
  BinomialGather,     ///< BGMH (Algorithm 5)
  Bruck,              ///< BKMH (future-work extension, §VII)
};

const char* to_string(Pattern p);

/// Abstract mapper.
class Mapper {
 public:
  virtual ~Mapper() = default;

  /// Short identifier, e.g. "RDMH".
  virtual std::string name() const = 0;

  /// Compute the new assignment.  `rank_to_slot[i]` is the slot currently
  /// hosting rank i; `d` must cover every slot id that appears.  Returns
  /// `M[new_rank] = slot`, a permutation of the input slot set.
  /// `rng` supplies the random tie-breaking of Algorithm 1 step 5.
  virtual std::vector<int> map(const std::vector<int>& rank_to_slot,
                               const topology::DistanceMatrix& d,
                               Rng& rng) const = 0;

  /// map() followed by check::verify_mapping: throws tarr::Error naming this
  /// mapper if the result is not a bijection onto the input slot set.  The
  /// verification is O(p) and always on — every consumer that feeds a
  /// mapping into a communicator (the reorder framework, tools) should call
  /// this instead of map().
  std::vector<int> checked_map(const std::vector<int>& rank_to_slot,
                               const topology::DistanceMatrix& d,
                               Rng& rng) const;
};

/// The two-level mapper of the hierarchical path (§VI-A2): `leader`
/// rearranges whole node blocks over the node matrix (`d.node_level()`,
/// slots = node ids), and `intra` (nullptr for the linear intra phases,
/// which admit no reordering) rearranges each node's ranks over the
/// intra-node template (`d.intra_level()`, slots = node-local cores).
/// Blocks and local cores are read from `d`'s node-major numbering,
/// slot = node * c + local, so the input must be node-contiguous: ranks
/// fill whole nodes, c consecutive ranks per node.  The result is again
/// node-contiguous.  Both mappers must outlive this one.
class HierarchicalMapper : public Mapper {
 public:
  HierarchicalMapper(const Mapper& leader, const Mapper* intra)
      : leader_(&leader), intra_(intra) {}
  std::string name() const override {
    return "hierarchical:" + leader_->name();
  }
  std::vector<int> map(const std::vector<int>& rank_to_slot,
                       const topology::DistanceMatrix& d,
                       Rng& rng) const override;

 private:
  const Mapper* leader_;
  const Mapper* intra_;
};

/// The paper's fine-tuned heuristic for `p` (RDMH/RMH/BBMH/BGMH/BKMH).
std::unique_ptr<Mapper> make_heuristic(Pattern p);

/// MVAPICH-style reorder: rewrites a block layout into a cyclic one with no
/// topology input (the limited scheme the paper contrasts RDMH against).
std::unique_ptr<Mapper> make_mvapich_cyclic_mapper(int slots_per_node);

/// Hoefler–Snir-style greedy graph mapper over an explicit pattern graph.
std::unique_ptr<Mapper> make_greedy_graph_mapper(Pattern p);

/// Scotch-like dual recursive bipartitioning over an explicit pattern graph.
std::unique_ptr<Mapper> make_scotch_like_mapper(Pattern p);

}  // namespace tarr::mapping
