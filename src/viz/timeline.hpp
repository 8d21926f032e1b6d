#pragma once

#include <string>

#include "report/critical_path.hpp"
#include "trace/record.hpp"
#include "viz/html.hpp"

/// \file timeline.hpp
/// Timeline / critical-path view over one recorded run — the schedule read
/// without Perfetto.  Three bands, one simulated-time axis:
///   * phases: the collective's grouping spans (intra gather, leader
///     exchange, ...);
///   * the critical path: one bar per completion-time-determining segment,
///     its duration split into stacked serialization / contention-stall /
///     retransmission colors (the tarr::report attribution made visible);
///   * per-rank rows: every recorded transfer as a bar on its destination
///     rank's row, colored by channel class, critical elements outlined.
/// The per-rank band is skipped (with a note) above a row cap (kMaxRankRows
/// in timeline.cpp) — beyond that it is an unreadable smear and a
/// multi-megabyte SVG.

namespace tarr::viz {

/// Render the timeline HTML fragment for `record` with its extracted
/// critical path (callers usually have `path` already; it must come from
/// this same record).
std::string render_timeline(const trace::ScheduleRecord& record,
                            const report::CriticalPath& path,
                            const std::string& caption);

}  // namespace tarr::viz
