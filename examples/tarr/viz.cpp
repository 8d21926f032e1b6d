// tarr viz — self-contained HTML views over tarr::viz (docs/OBSERVABILITY.md,
// "Dashboards"), byte-identical across same-seed runs:
//   topo       fat-tree cable / QPI load heatmaps, baseline vs reordered,
//              plus the relieved / newly loaded diff
//   matrix     communication matrices before / after, one color scale
//   timeline   timeline and critical-path views of both schedules
//   trend      perf-trajectory charts over snapshot sets
//   dashboard  all of the above on one page
// `--out -` (the default) writes to stdout.  The schedule views can stream
// both runs into `.tlog` captures (--tlog-baseline, --tlog) or rebuild them
// from such files (--from-tlog-baseline with --from-tlog): with the same run
// options the page is byte-identical to the live render.

#include <cstdio>

#include "common/cli.hpp"
#include "common/permutation.hpp"
#include "driver.hpp"
#include "report/critical_path.hpp"
#include "report/snapshot.hpp"
#include "tlog/reader.hpp"
#include "viz/dashboard.hpp"
#include "viz/matrix.hpp"
#include "viz/timeline.hpp"
#include "viz/topo.hpp"
#include "viz/trend.hpp"

namespace tarr::driver {
namespace {

/// Baseline + reordered records of one configured run.
struct Runs {
  topology::Machine machine;
  trace::ScheduleRecord baseline;
  trace::ScheduleRecord candidate;
  std::string subtitle;
};

Runs run_pair(const Flags& f, const RunSpec& run) {
  const std::string from = f.str("--from-tlog");
  const std::string from_base = f.str("--from-tlog-baseline");
  const bool replay = !from.empty() || !from_base.empty();
  if (replay && (from.empty() || from_base.empty()))
    throw cli::UsageError(
        "--from-tlog and --from-tlog-baseline must be given together");
  if (replay && (f.has("--tlog") || f.has("--tlog-baseline")))
    throw cli::UsageError("--from-tlog* and --tlog* are exclusive");
  Obs obs(f);
  topology::Machine machine = topology::Machine::gpc(run.nodes);
  const mapping::Pattern pattern = run.collective();
  const simmpi::Communicator comm = run.comm(machine);
  trace::ScheduleRecord baseline, candidate;
  if (replay) {
    baseline = tlog::read_record(from_base);
    candidate = tlog::read_record(from);
  } else {
    core::ReorderFramework fw = run.framework(machine);
    const core::ReorderedComm rc = reorder(fw, comm, pattern, run.mapper);
    // Records first: comm/rc reference `machine`, which moves into the
    // result only once nothing borrows it anymore.
    baseline = record(comm, pattern, identity_permutation(comm.size()),
                      run.msg_bytes, obs.tlog("--tlog-baseline"));
    candidate = record(rc.comm, pattern, rc.oldrank, run.msg_bytes,
                       obs.tlog());
    obs.finish_tlog();
  }
  const std::string subtitle = run.describe(comm.size());
  return Runs{std::move(machine), std::move(baseline), std::move(candidate),
              subtitle};
}

/// --snapshots sets (and, for trend, positional ones) in command-line
/// order, each labelled by the --label at its index or by its selector.
std::vector<report::SnapshotSet> trend_sets(const Flags& f) {
  std::vector<report::SnapshotSet> sets;
  std::vector<std::string> labels;
  for (const auto& [flag, value] : f.items()) {
    if (flag == "--label") labels.push_back(value);
    if (flag.empty() || flag == "--snapshots")
      sets.push_back({value, report::load_snapshot_set(value)});
  }
  for (std::size_t i = 0; i < sets.size() && i < labels.size(); ++i)
    sets[i].label = labels[i];
  return sets;
}

void emit(const Flags& f, const std::string& html) {
  const std::string out = f.str("--out", "-");
  if (out == "-") {
    std::fwrite(html.data(), 1, html.size(), stdout);
  } else {
    write_file(out, html);
  }
}

/// A single-view page shares the dashboard chrome: title + one section.
void emit_page(const Flags& f, const std::string& title,
               const std::string& subtitle, const std::string& section,
               const std::string& body) {
  viz::Page page(title);
  page.add_section(section, subtitle, body);
  emit(f, page.html());
}

}  // namespace

int cmd_viz(const Flags& f, const std::string& view) {
  const RunSpec run = parse_run(f);
  report::CompareOptions copts;
  copts.rel_tolerance = f.real("--rel-tolerance", copts.rel_tolerance);
  copts.abs_tolerance = f.real("--abs-tolerance", copts.abs_tolerance);
  if (view == "trend") {
    Obs obs(f);
    const std::vector<report::SnapshotSet> sets = trend_sets(f);
    if (sets.empty()) throw cli::UsageError("trend needs a snapshot set");
    emit_page(f, "tarr perf trajectory",
              std::to_string(sets.size()) + " snapshot set(s), " +
                  viz::fmt_fixed(copts.rel_tolerance, 1) +
                  "% gate tolerance",
              "Perf trajectory", viz::render_trend(sets, copts));
    return 0;
  }
  const Runs r = run_pair(f, run);
  if (view == "topo") {
    const viz::TopoHeatmap ha = viz::build_topo_heatmap(r.machine, r.baseline);
    const viz::TopoHeatmap hb =
        viz::build_topo_heatmap(r.machine, r.candidate);
    std::string body =
        viz::render_topo_heatmap(r.machine, ha, "baseline load");
    body += viz::render_topo_heatmap(r.machine, hb, "reordered load");
    body += viz::render_topo_diff(r.machine, ha, hb,
                                  "load diff: reordered vs baseline");
    emit_page(f, "tarr topology load", r.subtitle, "Topology load", body);
  } else if (view == "matrix") {
    emit_page(f, "tarr communication matrix", r.subtitle,
              "Communication matrix",
              viz::render_comm_matrix_pair(
                  viz::build_comm_matrix(r.baseline, r.machine), "baseline",
                  viz::build_comm_matrix(r.candidate, r.machine),
                  "reordered"));
  } else if (view == "timeline") {
    const auto pa = report::analyze_critical_path(r.baseline, r.machine);
    const auto pb = report::analyze_critical_path(r.candidate, r.machine);
    std::string body =
        viz::render_timeline(r.baseline, pa, "baseline schedule");
    body += viz::render_timeline(r.candidate, pb, "reordered schedule");
    emit_page(f, "tarr timeline", r.subtitle, "Timeline & critical path",
              body);
  } else {
    viz::DashboardInputs in;
    in.subtitle = r.subtitle;
    in.machine = &r.machine;
    in.baseline = &r.baseline;
    in.candidate = &r.candidate;
    in.trend = trend_sets(f);
    in.trend_opts = copts;
    emit(f, viz::render_dashboard(in));
  }
  return 0;
}

}  // namespace tarr::driver
