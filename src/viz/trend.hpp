#pragma once

#include <string>
#include <vector>

#include "report/snapshot.hpp"
#include "viz/html.hpp"

/// \file trend.hpp
/// Perf-trajectory view over schema-v1 bench snapshots: each `TrendSet` is
/// one point in history (a directory of `BENCH_*.json` files — committed
/// baselines, a CI run, a local regeneration), and the view plots every
/// metric across the sets, one chart per (bench, unit).  Gated metrics that
/// fall outside the gate tolerance relative to the *first* set are flagged
/// with the status color + a text label (never color alone).  A single set
/// renders too (single-point charts) — the degenerate "trajectory" CI draws
/// from just the committed baselines.

namespace tarr::viz {

/// One labeled snapshot set (one x-axis position of the trajectory).
struct TrendSet {
  std::string label;  ///< e.g. "baseline", "current", a git ref
  std::vector<report::BenchSnapshot> snapshots;
};

/// Render the trajectory HTML fragment.  `opts` supplies the gate
/// tolerances used for flagging (the same ones `tarr report compare`
/// gates with).
std::string render_trend(const std::vector<TrendSet>& sets,
                         const report::CompareOptions& opts = {});

}  // namespace tarr::viz
