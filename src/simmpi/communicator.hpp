#pragma once

#include <vector>

#include "common/error.hpp"
#include "topology/machine.hpp"

/// \file communicator.hpp
/// An MPI-communicator analogue: an ordered set of processes, each pinned to
/// a physical core of a Machine.  Rank reordering produces a *new*
/// communicator over the same set of cores with a different rank order —
/// mirroring how the paper creates a reordered copy of a communicator once
/// and routes subsequent collective calls through it.

namespace tarr::simmpi {

/// Immutable communicator: rank -> core, plus derived lookups.
class Communicator {
 public:
  /// `rank_to_core[i]` is the core hosting rank i.  Cores must be distinct
  /// and valid for `m`.  The machine must outlive the communicator.
  Communicator(const topology::Machine& m, std::vector<CoreId> rank_to_core);

  int size() const { return static_cast<int>(rank_to_core_.size()); }
  const topology::Machine& machine() const { return *machine_; }

  CoreId core_of(Rank r) const {
    TARR_REQUIRE(r >= 0 && r < size(), "core_of: rank out of range");
    return rank_to_core_[r];
  }
  NodeId node_of(Rank r) const;
  SocketId socket_of(Rank r) const;

  /// Rank hosted on core c, or kNoRank if that core is not in this
  /// communicator.
  Rank rank_on_core(CoreId c) const;

  const std::vector<CoreId>& rank_to_core() const { return rank_to_core_; }

  /// A new communicator over the same cores with ranks reassigned:
  /// `new_rank_to_core[j]` is the core of new rank j.  The core set must be
  /// exactly this communicator's core set.
  Communicator reordered(std::vector<CoreId> new_rank_to_core) const;

  /// Permutation old rank -> new rank implied by a reordered communicator
  /// over the same cores (the process stays on its core; only its rank
  /// changes).
  std::vector<Rank> permutation_to(const Communicator& reordered) const;

  /// True iff ranks are node-contiguous with exactly `ranks_per_node()` ranks
  /// per node in rank order — the precondition of the hierarchical path.
  bool node_contiguous() const;

  /// Ranks grouped by the hosting node (indexed by node-of-first-appearance
  /// order is NOT applied; index is the global NodeId).  Empty groups for
  /// unused nodes are omitted: result[i] lists ranks of the i-th distinct
  /// node in ascending NodeId order.
  std::vector<std::vector<Rank>> ranks_by_node() const;

 private:
  const topology::Machine* machine_;
  std::vector<CoreId> rank_to_core_;
  std::vector<Rank> core_to_rank_;  // size total_cores, kNoRank if unused
};

}  // namespace tarr::simmpi
