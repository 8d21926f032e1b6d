#pragma once

#include <vector>

#include "collectives/collective.hpp"
#include "simmpi/engine.hpp"

/// \file neighbor.hpp
/// Neighbor-exchange allgather (Chen et al.) — a fourth classic allgather
/// algorithm, completing the substrate.  Requires an even number of ranks
/// and runs p/2 stages: stage 0 exchanges own blocks between adjacent
/// pairs ((0,1), (2,3), ...); every later stage k exchanges, with the
/// alternate neighbor ((1,2), (3,4), ..., wrapping), the two blocks
/// received in stage k-1.
///
/// Its communication pattern is the ring graph, so RMH is the matching
/// fine-tuned heuristic.  Like the ring, it stores every incoming block
/// directly at its original-rank index, so no §V-B mechanism is needed.
///
/// Engine contract: buf_blocks >= p, block_bytes = per-rank message m.

namespace tarr::collectives {

/// Run one neighbor-exchange allgather (p even); returns the simulated
/// time added.  `oldrank[j]` as in run_allgather.
Usec run_allgather_neighbor(simmpi::Engine& eng,
                            const std::vector<Rank>& oldrank);

}  // namespace tarr::collectives
