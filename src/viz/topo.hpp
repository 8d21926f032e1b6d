#pragma once

#include <string>
#include <vector>

#include "topology/machine.hpp"
#include "trace/record.hpp"
#include "viz/html.hpp"

/// \file topo.hpp
/// Topology load heatmap: the two-level fat-tree (and the NUMA structure of
/// its nodes) drawn as SVG with the recorded per-cable / per-QPI directed
/// byte loads painted onto the edges.  This is the picture behind the
/// paper's Figs 3-4 argument: before reordering, leaf uplinks and QPI
/// directions glow dark; after, the load migrates into the leaves and the
/// sockets.
///
/// The heatmap model is an exact copy of the record's load totals —
/// `TopoHeatmap` byte values are taken verbatim from
/// `ScheduleRecord::load_totals()` (no re-derivation, no floating-point
/// re-summation), so tests can assert equality with the record's totals via
/// EXPECT_EQ, not a tolerance.

namespace tarr::viz {

/// Directed byte load of one physical cable bundle (a SwitchGraph link).
struct TopoEdgeLoad {
  LinkId link = 0;
  /// bytes[dir] for dir in {0, 1}, CostModel's direction convention
  /// (dir 0 = traffic entering at the link's `a` endpoint).
  double bytes[2] = {0.0, 0.0};
};

/// Directed QPI byte load of one compute node.
struct TopoNodeLoad {
  NodeId node = 0;
  /// bytes[dir]: dir 0 = lower -> higher socket, 1 = the reverse.
  double bytes[2] = {0.0, 0.0};
};

/// The load model of one recorded run over one machine: every network link
/// and every node, values copied exactly from the record's counters.
struct TopoHeatmap {
  std::vector<TopoEdgeLoad> links;  ///< one per network link, by link id
  std::vector<TopoNodeLoad> nodes;  ///< one per compute node, by node id
  double max_link_bytes = 0.0;      ///< max over links and directions
  double max_qpi_bytes = 0.0;       ///< max over nodes and directions
};

/// Build the heatmap for `record` over `machine` (the machine the run's
/// communicator lived on).  Links/nodes the run never loaded appear with
/// zero bytes; counters for ids outside the machine are ignored.
TopoHeatmap build_topo_heatmap(const topology::Machine& machine,
                               const trace::ScheduleRecord& record);

/// Render one heatmap as an HTML fragment: the layered switch graph
/// (spine / line / leaf rows, hosts at the bottom) with two directed
/// load-colored strokes per link, per-socket QPI coloring inside each host
/// glyph, a sequential legend and a collapsible per-link data table.
std::string render_topo_heatmap(const topology::Machine& machine,
                                const TopoHeatmap& heat,
                                const std::string& caption);

/// Render the *diff* of two heatmaps over the same machine: every edge and
/// QPI direction colored on the diverging scale — blue where run `b`
/// relieved load relative to run `a`, red where it newly loaded — plus the
/// diverging legend and a table of the largest movements.
std::string render_topo_diff(const topology::Machine& machine,
                             const TopoHeatmap& a, const TopoHeatmap& b,
                             const std::string& caption);

}  // namespace tarr::viz
