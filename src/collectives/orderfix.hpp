#pragma once

#include <vector>

#include "simmpi/engine.hpp"

/// \file orderfix.hpp
/// §V-B: preserving the correct order of the output buffer under rank
/// reordering.
///
/// Throughout the collective layer, `oldrank[j]` denotes the ORIGINAL rank
/// of the process acting as new rank j in the reordered communicator (the
/// identity permutation when no reordering happened).  Allgather engines use
/// a p-block buffer where new rank j's own contribution is seeded at slot j.

namespace tarr::collectives {

/// The input check of every runner that reads `oldrank`: it must hold one
/// entry per rank, be a permutation, and the engine must have at least
/// `min_blocks` blocks per rank.  Throws tarr::Error naming `runner`.
void require_oldrank(const simmpi::Engine& eng,
                     const std::vector<Rank>& oldrank, int min_blocks,
                     const char* runner);

/// Seed every rank's contribution at its own slot, tagged with its original
/// rank — the canonical pre-collective state (Data mode; cost-free).
void seed_allgather_inputs(simmpi::Engine& eng,
                           const std::vector<Rank>& oldrank);

/// §V-B-1 "extra initial communications": one stage in which the input
/// vector of original rank j travels to the process whose new rank is j, so
/// the collective then produces an output vector in original-rank order.
void init_comm_exchange(simmpi::Engine& eng,
                        const std::vector<Rank>& oldrank);

/// §V-B-2 "memory shuffling at the end": permute the output vector so the
/// block produced at position j lands at position oldrank[j].
void end_shuffle(simmpi::Engine& eng, const std::vector<Rank>& oldrank);

}  // namespace tarr::collectives
