#include "topology/fattree.hpp"

#include <string>
#include <vector>

#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::topology {

void validate(const GpcTreeConfig& cfg) {
  TARR_REQUIRE(cfg.num_leaves >= 1, "GpcTreeConfig: num_leaves must be >= 1");
  TARR_REQUIRE(cfg.nodes_per_leaf >= 1,
               "GpcTreeConfig: nodes_per_leaf must be >= 1");
  TARR_REQUIRE(cfg.num_cores >= 1, "GpcTreeConfig: num_cores must be >= 1");
  TARR_REQUIRE(cfg.uplinks_per_core >= 1,
               "GpcTreeConfig: uplinks_per_core must be >= 1");
  TARR_REQUIRE(cfg.lines_per_core >= 1,
               "GpcTreeConfig: lines_per_core must be >= 1");
  TARR_REQUIRE(cfg.spines_per_core >= 1,
               "GpcTreeConfig: spines_per_core must be >= 1");
  TARR_REQUIRE(cfg.leaves_per_line >= 1,
               "GpcTreeConfig: leaves_per_line must be >= 1");
  TARR_REQUIRE(cfg.line_spine_capacity >= 1,
               "GpcTreeConfig: line_spine_capacity must be >= 1");
  TARR_REQUIRE(cfg.host_link_capacity >= 1,
               "GpcTreeConfig: host_link_capacity must be >= 1");
  // Every leaf's uplinks must land on an existing line switch.
  const int lines_needed =
      (cfg.num_leaves + cfg.leaves_per_line - 1) / cfg.leaves_per_line;
  TARR_REQUIRE(lines_needed <= cfg.lines_per_core,
               "GpcTreeConfig: leaves do not fit the line switches");
}

SwitchGraph build_gpc_network(int num_nodes, const GpcTreeConfig& cfg) {
  prof::ProfScope pscope("network-build");
  validate(cfg);
  TARR_REQUIRE(num_nodes >= 1, "build_gpc_network: need at least one node");
  TARR_REQUIRE(num_nodes <= cfg.num_leaves * cfg.nodes_per_leaf,
               "build_gpc_network: too many nodes for the tree");

  SwitchGraph g;

  // Leaf switches.
  std::vector<NetVertexId> leaves;
  leaves.reserve(cfg.num_leaves);
  for (int l = 0; l < cfg.num_leaves; ++l)
    leaves.push_back(
        g.add_vertex(VertexKind::LeafSwitch, "leaf" + std::to_string(l)));

  // Core switches: each is a 2-level tree of line and spine switches.  A
  // leaf's 3 uplinks to a core switch land on the line switch responsible for
  // that leaf (6 leaves per line switch on GPC).
  std::vector<std::vector<NetVertexId>> lines(cfg.num_cores);
  for (int c = 0; c < cfg.num_cores; ++c) {
    std::vector<NetVertexId> spines;
    spines.reserve(cfg.spines_per_core);
    for (int s = 0; s < cfg.spines_per_core; ++s)
      spines.push_back(g.add_vertex(
          VertexKind::SpineSwitch,
          "core" + std::to_string(c) + ".spine" + std::to_string(s)));
    for (int l = 0; l < cfg.lines_per_core; ++l) {
      const NetVertexId line = g.add_vertex(
          VertexKind::LineSwitch,
          "core" + std::to_string(c) + ".line" + std::to_string(l));
      lines[c].push_back(line);
      for (NetVertexId spine : spines)
        g.add_link(line, spine, cfg.line_spine_capacity);
    }
  }

  // Leaf -> core uplinks: one aggregated link (capacity = uplinks_per_core)
  // from every leaf to its line switch in each core switch.
  for (int l = 0; l < cfg.num_leaves; ++l) {
    const int line_idx = l / cfg.leaves_per_line;
    TARR_REQUIRE(line_idx < cfg.lines_per_core,
                 "build_gpc_network: line switch index overflow");
    for (int c = 0; c < cfg.num_cores; ++c)
      g.add_link(leaves[l], lines[c][line_idx], cfg.uplinks_per_core);
  }

  // Compute nodes, attached to consecutive leaves.
  for (NodeId n = 0; n < num_nodes; ++n) {
    const NetVertexId host =
        g.add_vertex(VertexKind::Host, "node" + std::to_string(n), n);
    g.add_link(host, leaves[n / cfg.nodes_per_leaf], cfg.host_link_capacity);
  }
  return g;
}

SwitchGraph build_single_switch_network(int num_nodes) {
  prof::ProfScope pscope("network-build");
  TARR_REQUIRE(num_nodes >= 1, "build_single_switch_network: need >= 1 node");
  SwitchGraph g;
  const NetVertexId sw = g.add_vertex(VertexKind::Switch, "xbar");
  for (NodeId n = 0; n < num_nodes; ++n) {
    const NetVertexId host =
        g.add_vertex(VertexKind::Host, "node" + std::to_string(n), n);
    g.add_link(host, sw, 1);
  }
  return g;
}

SwitchGraph build_two_level_fattree(int num_nodes, int nodes_per_leaf,
                                    int num_spines, int up_capacity) {
  prof::ProfScope pscope("network-build");
  TARR_REQUIRE(num_nodes >= 1, "build_two_level_fattree: num_nodes must be >= 1");
  TARR_REQUIRE(nodes_per_leaf >= 1,
               "build_two_level_fattree: nodes_per_leaf must be >= 1");
  TARR_REQUIRE(num_spines >= 1,
               "build_two_level_fattree: num_spines must be >= 1");
  TARR_REQUIRE(up_capacity >= 1,
               "build_two_level_fattree: up_capacity must be >= 1");
  SwitchGraph g;
  const int num_leaves = (num_nodes + nodes_per_leaf - 1) / nodes_per_leaf;
  std::vector<NetVertexId> spines;
  spines.reserve(num_spines);
  for (int s = 0; s < num_spines; ++s)
    spines.push_back(
        g.add_vertex(VertexKind::SpineSwitch, "spine" + std::to_string(s)));
  std::vector<NetVertexId> leaves;
  leaves.reserve(num_leaves);
  for (int l = 0; l < num_leaves; ++l) {
    const NetVertexId leaf =
        g.add_vertex(VertexKind::LeafSwitch, "leaf" + std::to_string(l));
    leaves.push_back(leaf);
    for (NetVertexId spine : spines) g.add_link(leaf, spine, up_capacity);
  }
  for (NodeId n = 0; n < num_nodes; ++n) {
    const NetVertexId host =
        g.add_vertex(VertexKind::Host, "node" + std::to_string(n), n);
    g.add_link(host, leaves[n / nodes_per_leaf], 1);
  }
  return g;
}

}  // namespace tarr::topology
