#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "topology/network.hpp"

/// \file routing.hpp
/// Deterministic destination-based routing over a SwitchGraph: the static
/// linear forwarding tables (LFTs) of an InfiniBand fabric.
///
/// For every destination host the router keeps one forwarding entry per
/// vertex: the link that leaves that vertex on a shortest path toward the
/// destination.  Among the shortest-path candidates the entry is chosen by a
/// deterministic function of (destination, current vertex) — the same flavor
/// of spreading as D-mod-K / ftree routing: traffic to different
/// destinations fans out across parallel uplinks, while all traffic to one
/// destination follows a fixed path (so two flows to the same place
/// genuinely contend, which is what produces the paper's congestion
/// effects).  A route is read by walking the tables from the source host.
///
/// Failover: constructing a Router over a degraded graph (links or switches
/// removed, see fault::FaultMask) automatically reroutes every pair onto the
/// next-shortest surviving paths with the same deterministic spreading.  When
/// failures disconnect hosts, the outcome is *structured*: the component
/// decomposition is reported through Partitioned / PartitionedError rather
/// than undefined behavior or an unexplained crash.

namespace tarr::topology {

/// Structured description of a host partition: the connected components of
/// the host set (as compute-node ids), each sorted ascending, ordered by
/// their smallest member.  One component means all hosts are mutually
/// reachable.
struct Partitioned {
  std::vector<std::vector<NodeId>> components;

  /// "hosts split into k components: [0 1 4] [2 3] ..." (components and
  /// members elided past a small prefix to keep messages bounded).
  std::string describe() const;
};

/// Thrown when an operation requires host connectivity that the (possibly
/// degraded) graph no longer provides.  Carries the full component
/// decomposition so callers can react structurally — shrink to the largest
/// component, remap, or abort — instead of parsing an error string.
class PartitionedError : public Error {
 public:
  explicit PartitionedError(Partitioned info);
  const Partitioned& info() const { return info_; }

 private:
  Partitioned info_;
};

/// Connected components of g's hosts (see Partitioned).  A host with no
/// surviving link forms a singleton component.
Partitioned host_components(const SwitchGraph& g);

/// One hop of a route: the link taken and the direction it is crossed in
/// (0: from link.a to link.b, 1: from link.b to link.a).  2 * link + dir
/// indexes per-direction link state.
struct Hop {
  LinkId link = -1;
  int dir = 0;
};

/// Per-destination forwarding tables between host endpoints.  Self-contained:
/// it keeps no reference to the graph it was built from.
class Router {
 public:
  /// What to do when the graph's hosts are not mutually connected.
  enum class HostPolicy {
    RequireAll,        ///< throw PartitionedError at construction
    AllowUnreachable,  ///< build; walk()/hops() on a split pair throw
  };

  /// Builds the forwarding tables of every host in `g`.  With the default
  /// policy the graph must be connected across all hosts or construction
  /// throws PartitionedError; with AllowUnreachable the router is built for
  /// whatever connectivity survives (degraded-fabric routing) and
  /// reachable() reports per-pair status.
  explicit Router(const SwitchGraph& g,
                  HostPolicy policy = HostPolicy::RequireAll);

  /// Calls visit(Hop) for each link from host(src) to host(dst), in route
  /// order, and returns the number of hops (0 iff src == dst).  Throws
  /// PartitionedError if the pair is not reachable.
  template <class Visit>
  int walk(NodeId src, NodeId dst, Visit&& visit) const;

  /// Number of links on the route (0 iff src == dst).  Throws
  /// PartitionedError if the pair is not reachable.
  int hops(NodeId src, NodeId dst) const { return walk(src, dst, [](Hop) {}); }

  /// True iff src and dst lie in the same surviving component (always true
  /// for src == dst).
  bool reachable(NodeId src, NodeId dst) const;

  /// True iff every host pair is routable.
  bool fully_connected() const { return components_.components.size() <= 1; }

  /// The host component decomposition this router was built over.
  const Partitioned& partition() const { return components_; }

 private:
  int num_vertices_;
  std::vector<NetVertexId> host_vertex_;  ///< node -> its host vertex
  /// Directed link 2 * l + dir -> the vertex it enters.
  std::vector<NetVertexId> enters_;
  /// next_[dst * num_vertices_ + v]: the directed link that leaves v toward
  /// host(dst); -1 at host(dst) itself and where host(dst) is unreachable.
  std::vector<int> next_;
  Partitioned components_;
  std::vector<int> component_of_;  // host node -> component index
};

template <class Visit>
int Router::walk(NodeId src, NodeId dst, Visit&& visit) const {
  if (!reachable(src, dst)) throw PartitionedError(components_);
  const int* next =
      next_.data() + static_cast<std::size_t>(dst) * num_vertices_;
  const NetVertexId target = host_vertex_[dst];
  int n = 0;
  for (NetVertexId at = host_vertex_[src]; at != target; ++n) {
    const int d = next[at];
    visit(Hop{d / 2, d % 2});
    at = enters_[d];
  }
  return n;
}

}  // namespace tarr::topology
