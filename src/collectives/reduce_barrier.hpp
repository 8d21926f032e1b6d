#pragma once

#include "collectives/collective.hpp"
#include "simmpi/engine.hpp"

/// \file reduce_barrier.hpp
/// MPI_Reduce — rounding out the collective substrate.
///
/// Reduce uses the binomial halving tree (the gather tree with combining
/// instead of concatenation), so BGMH's parent-child locality applies to it
/// directly.

namespace tarr::collectives {

/// Binomial reduce of every rank's block 0 into new rank 0 (engine XOR
/// combine as the reduction op).  Engine: buf_blocks >= 1, block_bytes =
/// vector size.  Works for any p.
Usec run_reduce_binomial(simmpi::Engine& eng);

}  // namespace tarr::collectives
