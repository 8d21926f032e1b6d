#pragma once

#include <vector>

#include "collectives/collective.hpp"
#include "simmpi/engine.hpp"

/// \file hierarchical.hpp
/// Leader-based hierarchical MPI_Allgather (paper §II):
///   phase 1 — gather intra-node contributions into each node leader
///             (linear or binomial);
///   phase 2 — allgather of node chunks among the leaders (recursive
///             doubling or ring);
///   phase 3 — broadcast of the full output from each leader to its node
///             (linear or binomial).
///
/// Precondition: the communicator is node-contiguous (exactly
/// cores_per_node consecutive ranks per node) — the paper likewise does not
/// support the hierarchical path under cyclic layouts.  The node leader is
/// the first rank of each node block.

namespace tarr::collectives {

/// Options for one hierarchical allgather execution.
struct HierAllgatherOptions {
  AllgatherAlgo leader_algo = AllgatherAlgo::RecursiveDoubling;
  IntraAlgo intra = IntraAlgo::Binomial;
  OrderFix fix = OrderFix::None;
};

/// Run one hierarchical allgather; returns the simulated time added.
/// `oldrank` has the same meaning as in run_allgather; InitComm/EndShuffle
/// are applied globally, around all three phases.
Usec run_hier_allgather(simmpi::Engine& eng, const HierAllgatherOptions& opts,
                        const std::vector<Rank>& oldrank);

/// Convenience overload for the non-reordered case.
Usec run_hier_allgather(simmpi::Engine& eng,
                        const HierAllgatherOptions& opts);

/// Pipelined hierarchical allgather — the phase-overlap idea of the
/// paper's related work (Ma et al. [19]): instead of completing the whole
/// leader exchange before broadcasting, every node-chunk enters its node's
/// binomial broadcast pipeline one superstage after the leader receives it,
/// so the inter-node ring and the intra-node broadcasts run concurrently.
/// Phase 1 (gather) and the §V-B order handling are as in
/// run_hier_allgather; the leader exchange is the ring (the algorithm that
/// produces one chunk per stage).  Requires 2^k cores per node.
Usec run_hier_allgather_pipelined(simmpi::Engine& eng, IntraAlgo gather_algo,
                                  OrderFix fix,
                                  const std::vector<Rank>& oldrank);

}  // namespace tarr::collectives
