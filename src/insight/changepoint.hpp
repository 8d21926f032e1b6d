#pragma once

#include <string>
#include <vector>

#include "report/snapshot.hpp"

/// \file changepoint.hpp
/// Step-change detection over an ordered sequence of bench snapshot sets.
///
/// The perf gate (tarr report compare) answers "did THIS run regress against
/// THE baseline?".  The trajectory question is different: given the ordered
/// history of committed snapshot sets (one per landed change, labeled by
/// tag/commit), *where* did each gated metric step — and did the step land
/// as an improvement or a regression?  That turns "fig5 got slower at some
/// point" into "fig5 completion stepped +9.3% between v7 and v8".
///
/// The detector is deliberately simple and deterministic: for each
/// (bench, metric) series it maintains the current flat segment and its
/// running mean; an observation further from the segment mean than
/// max(abs_threshold, rel_threshold% of |mean|) closes the segment and
/// records a ChangePoint at that index (the commit-window is the pair of
/// labels bracketing the step).  The segment then restarts at the new
/// level, so a plateau shift reports ONE change point, not one per
/// subsequent sample — and a series that merely jitters inside the
/// tolerance band reports none (the CI negative control feeds the same
/// baseline set twice and greps for "no change points").
///
/// Missing entries (a bench or metric absent from one set, e.g. added
/// mid-history) are skipped without closing the segment.

namespace tarr::insight {

/// One detected step (see file comment).
struct ChangePoint {
  std::string bench;
  std::string metric;
  std::string unit;
  int index = 0;              ///< position in the set sequence where v[i] stepped
  std::string before_label;   ///< label of the last pre-step set
  std::string after_label;    ///< label of the set that stepped
  double before = 0.0;        ///< mean of the closed segment
  double after = 0.0;         ///< the stepped observation
  double change_percent = 0.0;  ///< signed, relative to `before`
  bool regression = false;    ///< stepped in the metric's worse direction
};

struct ChangePointOptions {
  double rel_threshold = 2.0;  ///< percent of the segment mean
  double abs_threshold = 0.0;  ///< same unit as the metric
  bool gated_only = true;      ///< skip trend-only (gate=false) metrics
};

/// Detect step changes across `sets` (ordered oldest -> newest).  Results
/// are ordered by (bench, metric, index) — deterministic for any input
/// order of benches inside the sets.
std::vector<ChangePoint> detect_change_points(
    const std::vector<report::SnapshotSet>& sets,
    const ChangePointOptions& opts = {});

/// Human-readable report.  Contains the literal line "no change points"
/// when `points` is empty (the CI negative control greps for it).
std::string render_change_points(const std::vector<ChangePoint>& points);

}  // namespace tarr::insight
