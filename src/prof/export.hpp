#pragma once

#include <string>

#include "prof/profiler.hpp"

/// \file export.hpp
/// Exporters for aggregated profiles (prof::Profile):
///  * flat_csv        — self/total flat profile, one row per (scope, metric),
///                      via tarr::bench::CsvWriter;
///  * collapsed_stacks — Brendan-Gregg collapsed-stack text ("a;b;c N"),
///                      flamegraph.pl / speedscope / inferno compatible;
///  * speedscope_json — evented speedscope file (https://speedscope.app),
///                      one O/C event pair per scope, children laid out
///                      inside their parent's span.
///
/// All exporters are deterministic for deterministic inputs: fixed field
/// order, locale-independent %.17g number formatting (exact integers bare).
/// Wall-clock columns are opt-in (ExportOptions::include_wall), so the
/// default CSV of a same-seed run is byte-identical across runs — the
/// contract CI's prof smoke pins with `cmp`.

namespace tarr::prof {

struct ExportOptions {
  /// Include wall_seconds rows/columns (nondeterministic; off by default,
  /// mirroring `tarr map --wall`).
  bool include_wall = false;
};

/// Flat profile CSV with header
/// `path,depth,calls,metric,self,total`.  Per scope, rows appear as:
/// "work" first, then named counters (sorted), then mem.bytes/mem.allocs
/// (only when the counting allocator was linked), then wall_seconds (only
/// with include_wall).
std::string flat_csv(const Profile& p, const ExportOptions& opts = {});

/// Collapsed stacks weighted by a metric's *self* value per scope
/// ("root;a;b 42", one line per scope with nonzero weight).  `metric` is
/// "work", "calls", "mem.bytes", "mem.allocs", "wall_seconds", or any
/// counter name.
std::string collapsed_stacks(const Profile& p, const std::string& metric);

/// Speedscope-loadable evented profile weighted by a metric (same names as
/// collapsed_stacks; weights use each scope's total, children nested inside
/// the parent's span, the self remainder trailing).
std::string speedscope_json(const Profile& p, const std::string& metric,
                            const std::string& name);

/// Metric accessor shared by the exporters: self/total of `metric` at one
/// entry (unknown counters read as 0).
ProfileMetric metric_of(const ProfileEntry& e, const std::string& metric);

}  // namespace tarr::prof
