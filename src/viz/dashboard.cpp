#include "viz/dashboard.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "report/critical_path.hpp"
#include "report/diff.hpp"
#include "viz/findings.hpp"
#include "viz/matrix.hpp"
#include "viz/profile.hpp"
#include "viz/timeline.hpp"
#include "viz/topo.hpp"

namespace tarr::viz {

namespace {

using report::CriticalPath;
using report::PathChannel;
using trace::ScheduleRecord;

std::string card(const std::string& name, const std::string& value,
                 const std::string& delta_html) {
  return "<div class=\"card\"><div class=\"name\">" + escape_text(name) +
         "</div><div class=\"value\">" + escape_text(value) +
         "</div><div class=\"delta\">" + delta_html + "</div></div>\n";
}

std::string summary_cards(const DashboardInputs& in, const CriticalPath& pa,
                          const CriticalPath* pb) {
  std::string cards = "<div class=\"cards\">\n";
  cards += card(in.baseline_label + " completion", fmt_usec(in.baseline->total),
                "");
  if (in.candidate != nullptr && pb != nullptr) {
    const double a = in.baseline->total, b = in.candidate->total;
    const double imp = a != 0.0 ? (a - b) / a * 100.0 : 0.0;
    const bool better = imp > 0.0;
    cards += card(in.candidate_label + " completion", fmt_usec(b),
                  std::string("<span class=\"") +
                      (better ? "flag-good" : "flag-bad") + "\">" +
                      (better ? "&#8595; " : "&#8593; ") +
                      escape_text(fmt_fixed(std::fabs(imp), 2) + "% " +
                                  (better ? "faster" : "slower")) +
                      "</span>");
  }
  cards += card("critical-path split (" + in.baseline_label + ")",
                fmt_usec(pa.serialization) + " / " + fmt_usec(pa.contention) +
                    " / " + fmt_usec(pa.retransmission),
                "serialization / contention / retransmission");
  cards += "</div>\n";
  return cards;
}

/// Channel-attribution chart: critical-path time per channel class, one
/// series per run.
std::string channel_chart(const DashboardInputs& in, const CriticalPath& pa,
                          const CriticalPath* pb) {
  const PathChannel order[] = {PathChannel::IntraSocket, PathChannel::Qpi,
                               PathChannel::IntraLeaf, PathChannel::CrossCore,
                               PathChannel::Local, PathChannel::Other};
  std::vector<std::string> x;
  ChartSeries sa{in.baseline_label, {}, 0};
  ChartSeries sb{in.candidate_label, {}, 1};
  for (const PathChannel c : order) {
    x.push_back(report::to_string(c));
    const auto ia = pa.by_channel.find(c);
    sa.y.push_back(ia != pa.by_channel.end() ? ia->second.time : 0.0);
    if (pb != nullptr) {
      const auto ib = pb->by_channel.find(c);
      sb.y.push_back(ib != pb->by_channel.end() ? ib->second.time : 0.0);
    }
  }
  std::vector<ChartSeries> series{sa};
  if (pb != nullptr) series.push_back(sb);
  return line_chart("Critical-path time by channel class", x, series,
                    "critical-path time (us)");
}

}  // namespace

std::string render_dashboard(const DashboardInputs& in) {
  TARR_REQUIRE(in.machine != nullptr && in.baseline != nullptr,
               "render_dashboard: machine and baseline record are required");
  const topology::Machine& machine = *in.machine;

  const CriticalPath pa = report::analyze_critical_path(*in.baseline, machine);
  CriticalPath pb_store;
  const CriticalPath* pb = nullptr;
  if (in.candidate != nullptr) {
    pb_store = report::analyze_critical_path(*in.candidate, machine);
    pb = &pb_store;
  }

  Page page(in.title);

  page.add_section("Summary", in.subtitle,
                   summary_cards(in, pa, pb) + channel_chart(in, pa, pb));

  // Topology load.
  const TopoHeatmap ha = build_topo_heatmap(machine, *in.baseline);
  std::string topo_body = render_topo_heatmap(
      machine, ha, in.baseline_label + " directed cable / QPI load");
  if (in.candidate != nullptr) {
    const TopoHeatmap hb = build_topo_heatmap(machine, *in.candidate);
    topo_body += render_topo_heatmap(
        machine, hb, in.candidate_label + " directed cable / QPI load");
    topo_body += render_topo_diff(
        machine, ha, hb,
        "Load diff: " + in.candidate_label + " vs " + in.baseline_label);
  }
  page.add_section(
      "Topology load",
      "The switch graph with per-cable and per-QPI directed byte loads from "
      "the engine's load counters; darker is heavier.",
      topo_body);

  // Communication matrices.
  const CommMatrix ma = build_comm_matrix(*in.baseline, machine);
  std::string mat_body;
  if (in.candidate != nullptr) {
    const CommMatrix mb = build_comm_matrix(*in.candidate, machine);
    mat_body = render_comm_matrix_pair(ma, in.baseline_label, mb,
                                       in.candidate_label);
  } else {
    mat_body = render_comm_matrix(ma, in.baseline_label);
  }
  page.add_section(
      "Communication matrix",
      std::string("Pairwise byte volume in *physical* order (") +
          (ma.by_node ? "aggregated node x node" :
                        "ranks sorted by the core they occupy") +
          "); a good reordering pulls the heavy cells toward the diagonal "
          "blocks.",
      mat_body);

  // Timelines.
  std::string tl_body =
      render_timeline(*in.baseline, pa, in.baseline_label + " schedule");
  if (in.candidate != nullptr && pb != nullptr)
    tl_body +=
        render_timeline(*in.candidate, *pb, in.candidate_label + " schedule");
  page.add_section(
      "Timeline & critical path",
      "Stage bars per rank over simulated time; the critical band splits "
      "every completion-time-determining segment into serialization, "
      "contention stall and retransmission.",
      tl_body);

  // Mapping-attribution diff (tables from tarr::report).
  if (in.candidate != nullptr) {
    const report::MappingDiff diff =
        report::diff_runs(*in.baseline, *in.candidate, machine);
    std::vector<std::vector<std::string>> rows;
    for (const auto& [channel, delta] : diff.channels)
      rows.push_back({report::to_string(channel),
                      format_number(delta.a.bytes),
                      format_number(delta.b.bytes),
                      format_number(delta.bytes_delta()),
                      fmt_usec(delta.time_delta())});
    std::string diff_body = data_table(
        {"channel", in.baseline_label + " bytes", in.candidate_label + " bytes",
         "delta bytes", "delta transfer time"},
        rows);
    std::vector<std::vector<std::string>> res_rows;
    for (const auto& r : diff.relieved)
      res_rows.push_back({"relieved", r.label(), format_number(r.bytes_a),
                          format_number(r.bytes_b), format_number(r.delta())});
    for (const auto& r : diff.newly_loaded)
      res_rows.push_back({"newly loaded", r.label(), format_number(r.bytes_a),
                          format_number(r.bytes_b), format_number(r.delta())});
    if (!res_rows.empty())
      diff_body += collapsible(
          "Top relieved / newly loaded resources",
          data_table({"kind", "resource", in.baseline_label + " bytes",
                      in.candidate_label + " bytes", "delta"},
                     res_rows));
    page.add_section(
        "Mapping attribution",
        "Where the bytes (and the priced transfer time) migrated between "
        "channel classes, from tarr::report::diff_runs.",
        diff_body);
  }

  // Run diagnosis (tarr::insight findings).
  if (in.diagnosis != nullptr)
    page.add_section(
        "Diagnosis",
        "tarr::insight's ranked findings over the " + in.baseline_label +
            " run: stragglers, imbalance, fairness and critical-path "
            "pathologies, each with exact traced evidence and the knob it "
            "implicates.",
        render_findings_section(*in.diagnosis));

  // Reproduction overheads (tarr::prof self-profile).
  if (in.profile != nullptr && !in.profile->entries.empty())
    page.add_section(
        "Overheads",
        "What the reproduction itself spent per phase (tarr::prof work "
        "counters — deterministic, so this section is byte-stable across "
        "same-seed runs; wall time lives in the --prof CSV exports).",
        render_profile_section(*in.profile, in.profile_label));

  // Trajectory.
  if (!in.trend.empty())
    page.add_section(
        "Perf trajectory",
        "Bench snapshot metrics across sets; gated metrics outside the "
        "tolerance are flagged.",
        render_trend(in.trend, in.trend_opts));

  return page.html();
}

}  // namespace tarr::viz
