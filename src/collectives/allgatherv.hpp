#pragma once

#include <vector>

#include "collectives/collective.hpp"
#include "simmpi/engine.hpp"

/// \file allgatherv.hpp
/// MPI_Allgatherv — variable per-rank contribution sizes.  The ring
/// algorithm handles irregular sizes naturally (each stage forwards one
/// rank's whole contribution), and the in-place original-rank slot
/// addressing preserves output order under reordering exactly as in the
/// fixed-size ring.
///
/// Engine contract: block_bytes = 1 (the engine block is one byte) and
/// buf_blocks >= sum(counts).  Displacements follow MPI semantics: the
/// output vector holds original rank r's counts[r] bytes at displs[r],
/// where counts/displs are indexed by ORIGINAL rank.  The finished run
/// satisfies contract_allgatherv (collectives/contracts.hpp).

namespace tarr::collectives {

/// Run a ring allgatherv; returns the simulated time added.
/// `counts[r]` is original rank r's contribution in bytes (>= 1);
/// `oldrank[j]` as in run_allgather.  Output layout: original rank r's
/// bytes at offset sum(counts[0..r)).
Usec run_allgatherv_ring(simmpi::Engine& eng, const std::vector<int>& counts,
                         const std::vector<Rank>& oldrank);

/// MPI displacements of `counts` (each >= 1): displs[r] = sum(counts[0..r)),
/// with displs[p] = sum(counts) as the total buffer size.
std::vector<int> allgatherv_displacements(const std::vector<int>& counts);

}  // namespace tarr::collectives
