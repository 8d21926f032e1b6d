#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "topology/distance.hpp"

/// \file scheme.hpp
/// Shared machinery of Algorithm 1, the general scheme behind every
/// fine-tuned heuristic:
///
///   1  fix rank 0 on its current slot, choose it as the reference;
///   3  while processes remain:
///   4    select the next process               (pattern-specific)
///   5    find the free slot closest to the reference (ties broken randomly)
///   6    map the process onto it
///   7    update the reference if necessary     (pattern-specific)
///
/// MappingState implements steps 1, 5 and 6 plus the bookkeeping; each
/// heuristic supplies its own process-selection and reference-update policy.
///
/// Step 5 is a reservoir scan of the free-slot pool in pool order: every
/// slot that ties the running minimum draws next_below(ties), and a draw of
/// 0 takes it.  Where the node matrix is ultrametric over the pool's nodes
/// (GPC, fat-tree: the nodes form a cluster tree node < leaf < line < all),
/// the pool is cut into blocks of 64 positions with a free count per block
/// for every cluster, and a block that holds no free core of the
/// reference's node is settled from its nearest cluster without reading it:
/// farther than the running minimum, it is skipped; at the minimum, its
/// draws are replayed from the count, one per slot of that cluster, and a
/// winning draw is resolved to its slot by one read of the block at the
/// end.  The draws, their order and their bounds are the full scan's, so
/// the RNG stream and every pick are too.  Every entry is read one by one
/// in a block that holds a free core of the reference's node or whose
/// nearest cluster is closer than the minimum, and in every block when the
/// matrix is one-level, the pool spans one node, or the node matrix is not
/// ultrametric over the pool's nodes (torus, dragonfly, probed matrices).

namespace tarr::mapping {

/// Mutable state of one run of Algorithm 1.
class MappingState {
 public:
  /// `rank_to_slot` is the initial assignment; `d` the slot distances.
  /// Fixes rank 0 on its current slot immediately (step 1).
  MappingState(const std::vector<int>& rank_to_slot,
               const topology::DistanceMatrix& d, Rng& rng);

  int num_ranks() const { return p_; }
  int num_mapped() const { return mapped_; }
  bool done() const { return mapped_ == p_; }
  /// Step-5 scans that broke a tie among equally close free slots.
  int tie_breaks() const { return tie_breaks_; }

  /// True iff `rank` has already been assigned a slot.
  bool is_mapped(Rank rank) const;

  /// Slot assigned to a mapped rank.
  int slot_of(Rank rank) const;

  /// Step 5: the free slot with minimum distance from the slot of
  /// `ref_rank` (which must be mapped); ties are broken uniformly at random.
  /// Profiler counters: `mapping.scan_steps` (free slots considered) and
  /// `mapping.scan_reads` (pool entries read one by one).
  int find_closest_to(Rank ref_rank);

  /// Step 6: assign `rank` (not yet mapped) to `slot` (currently free).
  void assign(Rank rank, int slot);

  /// Convenience for the common "map `rank` next to `ref_rank`" step.
  void map_close_to(Rank rank, Rank ref_rank);

  /// Lowest-numbered rank that is not mapped yet (kNoRank if none) — used as
  /// a robustness fallback when a pattern's selection rule runs out of
  /// candidates before every process is mapped.
  Rank first_unmapped() const;

  /// Final result M[new_rank] = slot.  Valid once done().
  std::vector<int> result() const;

 private:
  static constexpr int kBlock = 64;  // pool positions per counted block

  /// One cluster of the node matrix: single linkage at distance `height`
  /// joins its child clusters.  Leaves (the pool's nodes) come first.
  struct Cluster {
    int up;        // enclosing cluster, -1 at the root
    float height;  // distance between nodes of different children
  };

  /// Builds clusters_ and the block counts when the node matrix is
  /// ultrametric over the pool's nodes; leaves them empty otherwise.
  void build_clusters(const std::vector<int>& rank_to_slot);
  int leaf_of(int slot) const { return leaf_[slot / d_->cores_per_node()]; }
  std::size_t cell(int cluster, int block) const {
    return static_cast<std::size_t>(cluster) * blocks_ + block;
  }
  /// Adds `delta` to the free count in `block` of every cluster of `slot`.
  void count_free(int slot, int block, int delta);
  /// True iff the counts of `block` match the pool: takes the block's
  /// entries out of them, requires every count to read zero, and puts the
  /// entries back.  It allocates nothing, so slow-check builds keep the
  /// allocation bound of a mapping run.
  bool block_counts_match(int block);

  int p_;
  const topology::DistanceMatrix* d_;
  Rng* rng_;
  std::vector<int> assignment_;   // new_rank -> slot or -1
  std::vector<int> free_slots_;   // unordered pool, swap-remove
  std::vector<int> free_index_;   // slot -> index in free_slots_ or -1
  int mapped_ = 0;
  int tie_breaks_ = 0;
  // Cluster levels; all empty when every entry is read.
  std::vector<int> leaf_;          // node -> leaf cluster, -1 off the pool
  std::vector<Cluster> clusters_;  // leaves, then joins in height order
  int blocks_ = 0;                 // pool blocks at construction
  std::vector<std::uint16_t> block_free_;  // cluster * blocks_ + block
};

/// st.result() plus, in TARR_SLOW_CHECKS builds, a bijectivity re-check of
/// the heuristic's own output against the initial assignment (see
/// check/mapping_verifier.hpp).  Every heuristic returns through this, so
/// it sends the run's decision counters through obs::count, once each:
/// `mapping.placements` (every rank placed) and, when a scan broke a tie,
/// `mapping.tie_breaks`.
std::vector<int> finish_mapping(const MappingState& st,
                                const std::string& mapper,
                                const std::vector<int>& rank_to_slot);

}  // namespace tarr::mapping
