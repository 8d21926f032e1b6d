#pragma once

#include "common/error.hpp"
#include "common/types.hpp"

/// \file intranode.hpp
/// Intra-node hardware model (the hwloc-equivalent substrate).
///
/// The paper's testbed nodes are two quad-core Xeon sockets, each socket a
/// NUMA domain with its own memory and L3, connected by QPI.  The mapping
/// heuristics only consume *logical distances* between cores (hwloc-style).
///
/// Beyond the paper's machine, the model supports the deeper hierarchy its
/// §VII names as future work ("systems having a more complicated intra-node
/// topology with a larger number of cores per node"): each socket may be
/// subdivided into L3 *complexes* (CCX-style core groups), adding one more
/// locality level between "same socket" and "same core".

namespace tarr::topology {

/// Shape of one compute node: sockets x cores_per_socket, optionally
/// subdivided into L3 complexes of cores_per_complex cores each.
struct NodeShape {
  int sockets = 2;
  int cores_per_socket = 4;
  /// 0 = one complex per socket (the paper's flat-socket nodes); otherwise
  /// must divide cores_per_socket.
  int cores_per_complex = 0;

  int cores_per_node() const { return sockets * cores_per_socket; }
  int complexes_per_socket() const {
    return cores_per_complex > 0 ? cores_per_socket / cores_per_complex : 1;
  }
};

/// Locality level between two cores of the same node, from closest to
/// furthest.
enum class IntraLevel {
  SameCore,
  SameComplex,   ///< same socket, same L3 complex
  CrossComplex,  ///< same socket, different L3 complex
  CrossSocket,
};

/// Position of a core inside its node.
struct CoreLocation {
  SocketId socket = 0;
  int complex_in_socket = 0;
  int core_in_socket = 0;
};

/// Decompose a node-local core index (0 .. cores_per_node-1) into its
/// socket / complex / core coordinates.  Cores are numbered socket-major,
/// complex-major, matching how hwloc enumerates PUs.
inline CoreLocation core_location(const NodeShape& shape, int local_core) {
  TARR_REQUIRE(local_core >= 0 && local_core < shape.cores_per_node(),
               "core_location: local core out of range");
  TARR_REQUIRE(shape.cores_per_complex == 0 ||
                   shape.cores_per_socket % shape.cores_per_complex == 0,
               "core_location: complexes must tile the socket");
  CoreLocation loc;
  loc.socket = local_core / shape.cores_per_socket;
  loc.core_in_socket = local_core % shape.cores_per_socket;
  loc.complex_in_socket =
      shape.cores_per_complex > 0
          ? loc.core_in_socket / shape.cores_per_complex
          : 0;
  return loc;
}

/// Locality level of two cores of the *same* node.
inline IntraLevel intranode_level(const NodeShape& shape, int core_a,
                                  int core_b) {
  if (core_a == core_b) return IntraLevel::SameCore;
  const CoreLocation a = core_location(shape, core_a);
  const CoreLocation b = core_location(shape, core_b);
  if (a.socket != b.socket) return IntraLevel::CrossSocket;
  return a.complex_in_socket == b.complex_in_socket
             ? IntraLevel::SameComplex
             : IntraLevel::CrossComplex;
}

}  // namespace tarr::topology
