#pragma once

#include <memory>
#include <string>

#include "common/error.hpp"
#include "topology/fattree.hpp"
#include "topology/intranode.hpp"
#include "topology/network.hpp"
#include "topology/routing.hpp"

/// \file machine.hpp
/// A Machine = compute nodes (each with the intra-node NodeShape) attached to
/// a network.  It owns the global core numbering used by layouts, mapping
/// heuristics and the cost model: cores are numbered node-major, then
/// socket-major inside a node, exactly like MPI's notion of "slots".

namespace tarr::topology {

/// Immutable description of the whole cluster.
class Machine {
 public:
  /// One node per host endpoint in `net`.  The default policy requires every
  /// host to be routable and throws PartitionedError otherwise; pass
  /// AllowUnreachable to model a degraded fabric where some hosts lost
  /// connectivity (fault::DegradedTopology builds machines this way) — the
  /// node/core numbering is unaffected, and routing queries between split
  /// pairs throw the structured error at use time.
  explicit Machine(NodeShape shape, SwitchGraph net,
                   Router::HostPolicy policy = Router::HostPolicy::RequireAll);

  /// The paper's testbed: GPC-like fat-tree with `num_nodes` dual-socket
  /// quad-core nodes (8 cores per node).
  static Machine gpc(int num_nodes, NodeShape shape = NodeShape{});

  /// A machine whose nodes all hang off one crossbar switch.
  static Machine single_switch(int num_nodes, NodeShape shape = NodeShape{});

  int num_nodes() const { return net_.num_hosts(); }
  int cores_per_node() const { return shape_.cores_per_node(); }
  int total_cores() const { return num_nodes() * cores_per_node(); }

  const NodeShape& shape() const { return shape_; }
  const SwitchGraph& network() const { return net_; }
  const Router& router() const { return *router_; }

  /// Node that hosts global core c.
  NodeId node_of_core(CoreId c) const {
    TARR_REQUIRE(c >= 0 && c < total_cores(), "node_of_core: out of range");
    return c / cores_per_node();
  }
  /// Node-local index (0 .. cores_per_node-1) of global core c.
  int local_core(CoreId c) const {
    TARR_REQUIRE(c >= 0 && c < total_cores(), "local_core: out of range");
    return c % cores_per_node();
  }
  /// Socket of global core c within its node.
  SocketId socket_of_core(CoreId c) const {
    return core_location(shape_, local_core(c)).socket;
  }
  /// L3 complex of global core c within its socket (0 on flat sockets).
  int complex_of_core(CoreId c) const {
    return core_location(shape_, local_core(c)).complex_in_socket;
  }
  /// Global core id from (node, node-local core).
  CoreId core_id(NodeId node, int local) const;

  /// Network hops between the nodes of two cores (0 if same node).
  int network_hops_between_cores(CoreId a, CoreId b) const;

  /// Human-readable summary (node count, shape, network description).
  std::string describe() const;

 private:
  NodeShape shape_;
  SwitchGraph net_;
  std::unique_ptr<Router> router_;
};

}  // namespace tarr::topology
