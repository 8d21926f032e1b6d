#pragma once

#include <string>
#include <vector>

#include "report/snapshot.hpp"
#include "viz/html.hpp"

/// \file trend.hpp
/// Perf-trajectory view over schema-v1 bench snapshots: each
/// report::SnapshotSet is one point in history, and the view plots every
/// metric across the sets, one chart per (bench, unit).  Gated metrics that
/// fall outside the gate tolerance relative to the *first* set are flagged
/// with the status color + a text label (never color alone).  A single set
/// renders too (single-point charts) — the degenerate "trajectory" CI draws
/// from just the committed baselines.

namespace tarr::viz {

/// Render the trajectory HTML fragment, one x-axis position per set.
/// `opts` supplies the gate tolerances used for flagging (the same ones
/// `tarr report compare` gates with).
std::string render_trend(const std::vector<report::SnapshotSet>& sets,
                         const report::CompareOptions& opts = {});

}  // namespace tarr::viz
