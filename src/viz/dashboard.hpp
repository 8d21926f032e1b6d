#pragma once

#include <string>
#include <vector>

#include "insight/findings.hpp"
#include "prof/profiler.hpp"
#include "report/snapshot.hpp"
#include "topology/machine.hpp"
#include "trace/record.hpp"
#include "viz/trend.hpp"

/// \file dashboard.hpp
/// The combined dashboard: every tarr::viz view on one self-contained HTML
/// page — summary cards, topology load (with the baseline-vs-candidate
/// diff), side-by-side communication matrices, timelines, and the snapshot
/// trajectory.  Everything is optional except the machine + one record;
/// absent inputs simply drop their sections.

namespace tarr::viz {

struct DashboardInputs {
  std::string title = "tarr dashboard";
  std::string subtitle;  ///< one-line config description (machine, pattern)

  const topology::Machine* machine = nullptr;        ///< required
  const trace::ScheduleRecord* baseline = nullptr;  ///< required
  std::string baseline_label = "baseline";

  /// Optional second run of the same pattern (a reordered mapping):
  /// enables the topology diff, the side-by-side matrix and the second
  /// timeline.
  const trace::ScheduleRecord* candidate = nullptr;
  std::string candidate_label = "reordered";

  /// Optional snapshot trajectory (see trend.hpp).
  std::vector<report::SnapshotSet> trend;
  report::CompareOptions trend_opts;

  /// Optional tarr::prof self-profile of the run that produced the records:
  /// enables the "Overheads" section (viz/profile.hpp).
  const prof::Profile* profile = nullptr;
  std::string profile_label = "this run";

  /// Optional tarr::insight diagnosis of the baseline run: enables the
  /// "Diagnosis" section (viz/findings.hpp).
  const insight::Diagnosis* diagnosis = nullptr;
};

/// Render the full page.  Throws tarr::Error when machine/baseline are
/// missing.
std::string render_dashboard(const DashboardInputs& in);

}  // namespace tarr::viz
