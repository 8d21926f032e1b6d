#pragma once

#include "collectives/collective.hpp"
#include "simmpi/engine.hpp"

/// \file allreduce.hpp
/// MPI_Allreduce — the paper's §VII future-work extension ("we intend to
/// extend our heuristics to ... other important collectives such as
/// MPI_Allreduce").  Both algorithms below communicate in the recursive-
/// doubling / recursive-halving pattern, so RDMH reorders them directly; the
/// result of a reduction is order-independent, so no §V-B mechanism is
/// needed.
///
/// The engine's XOR combine stands in for the MPI reduction op.

namespace tarr::collectives {

/// Full-vector recursive-doubling allreduce: log2(p) stages, each rank pair
/// exchanging and combining the whole vector (engine: buf_blocks >= 1,
/// block 0 = the vector, block_bytes = message size).  Requires 2^k ranks.
Usec run_allreduce_rd(simmpi::Engine& eng);

/// Rabenseifner allreduce: recursive-halving reduce-scatter followed by a
/// recursive-doubling allgather (engine: buf_blocks >= p, block_bytes =
/// message/p).  Requires 2^k ranks.  Bandwidth-optimal for large messages.
Usec run_allreduce_rabenseifner(simmpi::Engine& eng);

/// Ring allreduce — the ML-training workhorse (ring reduce-scatter followed
/// by ring allgather over p chunks; 2(p-1) neighbor-only stages).  Engine:
/// buf_blocks >= p, block_bytes = message/p.  Works for any p >= 1, and its
/// neighbor-only traffic is exactly the pattern RMH (mapping::Pattern::Ring)
/// reorders for.  In Timed mode without transient faults each phase prices
/// one stage and repeats it (all ring stages are isomorphic), like the ring
/// allgather.
Usec run_allreduce_ring(simmpi::Engine& eng);

}  // namespace tarr::collectives
