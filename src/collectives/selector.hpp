#pragma once

#include "collectives/collective.hpp"

/// \file selector.hpp
/// MVAPICH-like algorithm selection for MPI_Allgather.  Like the library the
/// paper baselines against, the simulated stack picks recursive doubling for
/// small messages (power-of-two communicators; Bruck otherwise) and the ring
/// for large messages.  The improvement figures of the paper are computed
/// against whatever this selector picks — reordering "keeps collective
/// algorithms intact" (§IV).

namespace tarr::collectives {

/// Per-rank message sizes strictly below this use recursive doubling /
/// Bruck; sizes at or above it use the ring (MVAPICH's 32 KB switch).
inline constexpr Bytes kRdMaxMsg = 32 * 1024;

/// The algorithm the default library would run for `p` ranks and a per-rank
/// message of `msg_bytes`.
AllgatherAlgo select_allgather_algo(int p, Bytes msg_bytes);

}  // namespace tarr::collectives
