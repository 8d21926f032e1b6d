#pragma once

#include "fault/fault_mask.hpp"
#include "topology/distance.hpp"
#include "topology/machine.hpp"

/// \file degraded.hpp
/// A Machine overlaid with a FaultMask.
///
/// The degraded machine keeps the base machine's node/core numbering (host
/// vertices are never removed, only their links), rebuilds routing over the
/// surviving fabric with the same deterministic D-mod-K-style spreading —
/// so every pair automatically fails over to its next-shortest surviving
/// path — and tolerates unreachable hosts: a pair that lost all connectivity
/// throws the structured PartitionedError only if something actually routes
/// across the cut.  Distance matrices extracted here price split pairs at
/// +infinity, so the mapping heuristics consume the degraded topology
/// through the exact same interface as the pristine one.

namespace tarr::fault {

/// See file comment.  The base machine must outlive this object.
class DegradedTopology {
 public:
  DegradedTopology(const topology::Machine& base, FaultMask mask);

  /// The degraded machine: identical shape and numbering, surviving network.
  const topology::Machine& machine() const { return machine_; }

  /// The pristine machine this was derived from.
  const topology::Machine& base() const { return *base_; }

  const FaultMask& mask() const { return mask_; }

  /// False iff the node was explicitly failed via FaultMask::fail_node.
  /// (A node isolated by link/switch failures is still "alive" — reaching
  /// it is a routing question, and shrink reports it as a partition.)
  bool node_alive(NodeId n) const { return !mask_.node_failed(n); }

  /// Distance matrix over the degraded router (split node pairs at
  /// +infinity) — drop-in input for every Mapper; its node_level() is the
  /// node-to-node matrix.
  topology::DistanceMatrix distances() const {
    return topology::extract_distances(machine_);
  }

 private:
  const topology::Machine* base_;
  FaultMask mask_;
  topology::Machine machine_;
};

}  // namespace tarr::fault
