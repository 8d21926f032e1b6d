#pragma once

#include <vector>

#include "collectives/collective.hpp"
#include "simmpi/engine.hpp"

/// \file allgather.hpp
/// Non-hierarchical MPI_Allgather algorithms over a (possibly reordered)
/// communicator.
///
/// Engine contract: buf_blocks >= p and block_bytes = the per-rank
/// contribution size m (the OSU "message size").  The runner seeds inputs
/// itself, applies the requested §V-B order fix, and in Data mode the final
/// buffers satisfy contract_allgather (collectives/contracts.hpp).
///
/// `oldrank[j]` is the original rank of the process acting as new rank j
/// (identity when the communicator was not reordered).

namespace tarr::collectives {

/// Options for one allgather execution.
struct AllgatherOptions {
  AllgatherAlgo algo = AllgatherAlgo::RecursiveDoubling;
  OrderFix fix = OrderFix::None;
};

/// Run one allgather; returns the simulated time it added to the engine.
///
/// Ring and Bruck ignore `fix`: ring stores every incoming block directly at
/// its original-rank index (§V-B: "we resolve the issue from within the
/// algorithm itself"), and Bruck folds the correction into its mandatory
/// final rotation.  Recursive doubling requires InitComm or EndShuffle
/// whenever `oldrank` is not the identity.
Usec run_allgather(simmpi::Engine& eng, const AllgatherOptions& opts,
                   const std::vector<Rank>& oldrank);

/// Convenience overload for the non-reordered case.
Usec run_allgather(simmpi::Engine& eng, const AllgatherOptions& opts);

namespace detail {

/// The bare recursive-doubling stage loop (no seeding, no order fix) —
/// reused by the scatter-allgather broadcast and the hierarchical path.
void rd_stages(simmpi::Engine& eng);

/// The bare ring stage loop with in-place original-rank slot addressing.
void ring_stages(simmpi::Engine& eng, const std::vector<Rank>& oldrank);

}  // namespace detail

}  // namespace tarr::collectives
