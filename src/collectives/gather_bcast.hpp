#pragma once

#include <vector>

#include "collectives/collective.hpp"
#include "simmpi/engine.hpp"

/// \file gather_bcast.hpp
/// Standalone MPI_Gather and MPI_Bcast (the paper notes BGMH and BBMH apply
/// to these operations directly, not just to the phases of a hierarchical
/// allgather).
///
/// Gather engine contract: buf_blocks >= p, block_bytes = per-rank block m;
/// the root is new rank 0.  Bcast engine contract for linear/binomial:
/// buf_blocks >= 1, block 0 is the message; for scatter-allgather the
/// message is split into p blocks (block_bytes = m / p).

namespace tarr::collectives {

/// Tree shape of a gather/bcast.
enum class TreeAlgo { Linear, Binomial };

/// Tag run_bcast seeds at the root's block 0; in Data mode every rank must
/// hold it afterwards (contract_bcast in collectives/contracts.hpp).
inline constexpr std::uint32_t kBcastMessageTag = 0xb0adca57u;

/// Gather every rank's block to new rank 0, output in original-rank order
/// (§V-B fix applied; Linear needs no fix mechanism beyond slot addressing,
/// so `fix` is ignored for it).  Linear is modeled as p-1 serialized
/// arrivals at the root; Binomial as the log-depth halving tree.
Usec run_gather(simmpi::Engine& eng, TreeAlgo algo, OrderFix fix,
                const std::vector<Rank>& oldrank);

/// Broadcast new rank 0's block-0 message to every rank.  No output vector
/// exists, so no order fix applies (§V-B).
Usec run_bcast(simmpi::Engine& eng, TreeAlgo algo);

/// Large-message broadcast as binomial scatter + allgather (the paper notes
/// this composition is covered by BGMH/RDMH/RMH; provided as an executable
/// algorithm).  Engine: buf_blocks >= p, message = p blocks.
Usec run_bcast_scatter_allgather(simmpi::Engine& eng, AllgatherAlgo ag);

/// MPI_Scatter from new rank 0: the root's send buffer holds one block per
/// process in ORIGINAL-rank order (slot r = block for original rank r);
/// afterwards every new rank j holds its own block at slot j
/// (block(j, j) == oldrank[j] in Data mode).  The paper notes the scatter
/// pattern is the gather pattern reversed, so BGMH covers its mapping.
/// Binomial scatter under reordering pre-permutes the root's buffer into
/// new-rank order (one local shuffle, priced); linear scatter addresses
/// blocks directly and needs no shuffle.
Usec run_scatter(simmpi::Engine& eng, TreeAlgo algo,
                 const std::vector<Rank>& oldrank);

}  // namespace tarr::collectives
