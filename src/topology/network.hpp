#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

/// \file network.hpp
/// Generic switch-graph model of an interconnection network.
///
/// Vertices are either host endpoints (one per compute node) or switches;
/// undirected links carry a `capacity` equal to the number of parallel
/// physical cables they aggregate (the GPC tree has e.g. 3 cables between a
/// leaf switch and each core switch).  Routing and the cost model treat a
/// capacity-c link as c units of bandwidth shared by the transfers mapped
/// onto it.

namespace tarr::topology {

/// Role of a vertex in the network graph (informational; routing is generic).
enum class VertexKind { Host, LeafSwitch, LineSwitch, SpineSwitch, Switch };

/// Human-readable name of a vertex kind (for topology dumps).
const char* to_string(VertexKind k);

/// One vertex of the network graph.
struct NetVertex {
  VertexKind kind = VertexKind::Switch;
  std::string name;
  /// For Host vertices: the compute-node index this endpoint serves.
  NodeId node = -1;
};

/// One undirected link.  `capacity` >= 1 is the number of aggregated cables.
struct NetLink {
  NetVertexId a = -1;
  NetVertexId b = -1;
  int capacity = 1;
};

/// An undirected multigraph of hosts and switches with per-link capacities.
class SwitchGraph {
 public:
  /// Add a vertex; returns its id.
  NetVertexId add_vertex(VertexKind kind, std::string name, NodeId node = -1);

  /// Add an undirected link of the given capacity; returns its id.
  LinkId add_link(NetVertexId a, NetVertexId b, int capacity = 1);

  int num_vertices() const { return static_cast<int>(vertices_.size()); }
  int num_links() const { return static_cast<int>(links_.size()); }

  const NetVertex& vertex(NetVertexId v) const;
  const NetLink& link(LinkId l) const {
    TARR_REQUIRE(l >= 0 && l < num_links(), "link: id out of range");
    return links_[l];
  }

  /// Links incident to v (link ids).
  const std::vector<LinkId>& incident(NetVertexId v) const;

  /// The endpoint of link l that is not `from`.
  NetVertexId other_end(LinkId l, NetVertexId from) const;

  /// Host vertex id for compute node `node` (there must be exactly one).
  NetVertexId host_vertex(NodeId node) const;

  /// Number of host vertices.
  int num_hosts() const { return static_cast<int>(host_of_node_.size()); }

  /// Multi-line textual description (switch counts, link counts, radixes).
  std::string describe() const;

  /// Failure injection: a copy of this graph with the given links removed
  /// (cables cut).  Vertex ids are preserved; link ids are renumbered.
  /// Removing a host's only link leaves it unreachable — constructing a
  /// Router over such a graph throws, which is the intended detection.
  SwitchGraph with_failed_links(const std::vector<LinkId>& failed) const;

 private:
  std::vector<NetVertex> vertices_;
  std::vector<NetLink> links_;
  std::vector<std::vector<LinkId>> incident_;
  std::vector<NetVertexId> host_of_node_;
};

}  // namespace tarr::topology
