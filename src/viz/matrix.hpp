#pragma once

#include <string>
#include <vector>

#include "topology/machine.hpp"
#include "trace/record.hpp"
#include "viz/html.hpp"

/// \file matrix.hpp
/// Communication-matrix heatmap: the pattern's pairwise byte volume as a
/// rank x rank (or, at scale, node x node) grid, built from a recorded
/// schedule.  Rendered before/after a mapping permutation side by side,
/// this is the Cloud-Collectives-style picture of what a reordering does:
/// the same logical pattern, but the heavy cells migrate toward the
/// diagonal blocks (same node, same socket) of the *physical* ordering.

namespace tarr::viz {

/// A dense src x dst byte matrix over a recorded run.
struct CommMatrix {
  int n = 0;          ///< matrix dimension
  bool by_node = false;  ///< true when aggregated node x node
  /// Row-major bytes: cell(i, j) = bytes sent from axis entity i to j,
  /// weighted by stage repeats (the same logical-byte convention as
  /// report::channel_flows).
  std::vector<double> bytes;
  /// Axis labels in drawing order.  Rank matrices are ordered *physically*
  /// (by the core each rank ran on), so locality shows up as diagonal
  /// blocks; node matrices are ordered by node id.
  std::vector<std::string> labels;
  double max_bytes = 0.0;
  double total_bytes = 0.0;  ///< sum of all cells

  double cell(int i, int j) const { return bytes[i * n + j]; }
};

/// Build the matrix for `record`.  When the run has more than
/// `aggregate_above` distinct ranks the matrix aggregates to node x node
/// using `machine` (ranks themselves would be unreadable and enormous).
CommMatrix build_comm_matrix(const trace::ScheduleRecord& record,
                             const topology::Machine& machine,
                             int aggregate_above = 64);

/// Render one matrix as an HTML fragment (SVG grid, sequential coloring,
/// per-cell tooltips, legend, collapsible nonzero-cell table).
std::string render_comm_matrix(const CommMatrix& m, const std::string& caption);

/// Render two matrices of the same pattern side by side (e.g. baseline vs.
/// reordered), sharing one color scale so the panels are comparable.
std::string render_comm_matrix_pair(const CommMatrix& a,
                                    const std::string& caption_a,
                                    const CommMatrix& b,
                                    const std::string& caption_b);

}  // namespace tarr::viz
