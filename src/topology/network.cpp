#include "topology/network.hpp"

#include <array>
#include <sstream>

#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::topology {

const char* to_string(VertexKind k) {
  switch (k) {
    case VertexKind::Host:
      return "host";
    case VertexKind::LeafSwitch:
      return "leaf";
    case VertexKind::LineSwitch:
      return "line";
    case VertexKind::SpineSwitch:
      return "spine";
    case VertexKind::Switch:
      return "switch";
  }
  return "?";
}

NetVertexId SwitchGraph::add_vertex(VertexKind kind, std::string name,
                                    NodeId node) {
  const NetVertexId id = static_cast<NetVertexId>(vertices_.size());
  TARR_REQUIRE(kind == VertexKind::Host || node == -1,
               "add_vertex: only host vertices carry a node index");
  vertices_.push_back(NetVertex{kind, std::move(name), node});
  incident_.emplace_back();
  if (kind == VertexKind::Host) {
    TARR_REQUIRE(node >= 0, "host vertex requires a node index");
    if (static_cast<std::size_t>(node) >= host_of_node_.size())
      host_of_node_.resize(node + 1, -1);
    TARR_REQUIRE(host_of_node_[node] == -1,
                 "duplicate host vertex for node " + std::to_string(node));
    host_of_node_[node] = id;
  }
  return id;
}

LinkId SwitchGraph::add_link(NetVertexId a, NetVertexId b, int capacity) {
  TARR_REQUIRE(a >= 0 && a < num_vertices() && b >= 0 && b < num_vertices(),
               "add_link: endpoint out of range");
  TARR_REQUIRE(a != b, "add_link: self-loop");
  TARR_REQUIRE(capacity >= 1, "add_link: capacity must be >= 1");
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(NetLink{a, b, capacity});
  incident_[a].push_back(id);
  incident_[b].push_back(id);
  return id;
}

const NetVertex& SwitchGraph::vertex(NetVertexId v) const {
  TARR_REQUIRE(v >= 0 && v < num_vertices(), "vertex: id out of range");
  return vertices_[v];
}

const NetLink& SwitchGraph::link(LinkId l) const {
  TARR_REQUIRE(l >= 0 && l < num_links(), "link: id out of range");
  return links_[l];
}

const std::vector<LinkId>& SwitchGraph::incident(NetVertexId v) const {
  TARR_REQUIRE(v >= 0 && v < num_vertices(), "incident: id out of range");
  return incident_[v];
}

NetVertexId SwitchGraph::other_end(LinkId l, NetVertexId from) const {
  const NetLink& ln = link(l);
  TARR_REQUIRE(ln.a == from || ln.b == from,
               "other_end: vertex not an endpoint of link");
  return ln.a == from ? ln.b : ln.a;
}

NetVertexId SwitchGraph::host_vertex(NodeId node) const {
  TARR_REQUIRE(node >= 0 &&
                   static_cast<std::size_t>(node) < host_of_node_.size() &&
                   host_of_node_[node] != -1,
               "host_vertex: no host for node " + std::to_string(node));
  return host_of_node_[node];
}

SwitchGraph SwitchGraph::with_failed_links(
    const std::vector<LinkId>& failed) const {
  prof::ProfScope pscope("network-build");
  std::vector<char> dead(links_.size(), 0);
  for (LinkId l : failed) {
    TARR_REQUIRE(l >= 0 && l < num_links(),
                 "with_failed_links: link id out of range");
    dead[l] = 1;
  }
  SwitchGraph g;
  for (const auto& v : vertices_) g.add_vertex(v.kind, v.name, v.node);
  for (std::size_t l = 0; l < links_.size(); ++l) {
    if (!dead[l]) g.add_link(links_[l].a, links_[l].b, links_[l].capacity);
  }
  return g;
}

std::string SwitchGraph::describe() const {
  std::array<int, 5> counts{};
  for (const auto& v : vertices_) counts[static_cast<int>(v.kind)]++;
  int cables = 0;
  for (const auto& l : links_) cables += l.capacity;
  std::ostringstream os;
  os << "SwitchGraph: " << num_vertices() << " vertices ("
     << counts[static_cast<int>(VertexKind::Host)] << " hosts, "
     << counts[static_cast<int>(VertexKind::LeafSwitch)] << " leaf, "
     << counts[static_cast<int>(VertexKind::LineSwitch)] << " line, "
     << counts[static_cast<int>(VertexKind::SpineSwitch)] << " spine, "
     << counts[static_cast<int>(VertexKind::Switch)] << " generic), "
     << num_links() << " logical links / " << cables << " cables";
  return os.str();
}

}  // namespace tarr::topology
