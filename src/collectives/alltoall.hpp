#pragma once

#include "collectives/collective.hpp"
#include "simmpi/engine.hpp"

/// \file alltoall.hpp
/// MPI_Alltoall — completing the collective substrate (the related work the
/// paper builds on includes topology-aware alltoall schedules, [21]).
///
/// Engine contract: buf_blocks >= 2p and block_bytes = the per-pair message
/// size.  Slots [0, p) are the send blocks (slot k = block destined to rank
/// k); slots [p, 2p) are the receive blocks (slot p+i = block received from
/// rank i).  The runner seeds the send blocks itself in Data mode with tag
/// alltoall_tag(sender's original rank, receiver's original rank); the
/// finished run satisfies contract_alltoall (collectives/contracts.hpp).
///
/// Alltoall is traffic-symmetric (every rank exchanges with every other),
/// so rank reordering cannot reduce its total volume; the algorithms are
/// provided for substrate completeness and run on reordered communicators
/// unchanged (the receive slot is indexed by the ORIGINAL rank of the peer,
/// so output order is preserved in place for any `oldrank`).

namespace tarr::collectives {

/// Alltoall algorithm family.
enum class AlltoallAlgo {
  PairwiseXor,  ///< stage s: exchange with j XOR s (2^k ranks only)
  Rotation,     ///< stage s: send to (j+s) mod p, receive from (j-s) mod p
};

/// Tag carried by the block sender (original rank s) addresses to receiver
/// (original rank r).
inline std::uint32_t alltoall_tag(Rank sender_old, Rank receiver_old) {
  return static_cast<std::uint32_t>(sender_old) * 65536u +
         static_cast<std::uint32_t>(receiver_old);
}

/// Run one alltoall; returns the simulated time added.  `oldrank[j]` is the
/// original rank of the process acting as new rank j.
Usec run_alltoall(simmpi::Engine& eng, AlltoallAlgo algo,
                  const std::vector<Rank>& oldrank);

/// Convenience overload for the non-reordered case.
Usec run_alltoall(simmpi::Engine& eng, AlltoallAlgo algo);

}  // namespace tarr::collectives
