#include "viz/trend.hpp"

#include <limits>
#include <map>
#include <set>

namespace tarr::viz {

namespace {

using report::BenchMetric;
using report::BenchSnapshot;
using report::CompareOptions;
using report::SnapshotSet;

const BenchSnapshot* find_bench(const SnapshotSet& set,
                                const std::string& name) {
  for (const auto& s : set.snapshots)
    if (s.bench == name) return &s;
  return nullptr;
}

}  // namespace

std::string render_trend(const std::vector<SnapshotSet>& sets,
                         const CompareOptions& opts) {
  if (sets.empty())
    return "<p class=\"intro\">No snapshot sets to plot.</p>\n";

  std::vector<std::string> x_labels;
  for (const auto& s : sets) x_labels.push_back(s.label);

  // Benches in first-appearance order across sets (first set leads).
  std::vector<std::string> benches;
  std::set<std::string> seen;
  for (const auto& set : sets)
    for (const auto& snap : set.snapshots)
      if (seen.insert(snap.bench).second) benches.push_back(snap.bench);
  if (benches.empty())
    return "<p class=\"intro\">The snapshot sets contain no benches.</p>\n";

  std::string out;
  std::vector<std::vector<std::string>> flagged;

  for (const std::string& bench : benches) {
    // Metric inventory for this bench, in the order the first set that has
    // the bench declares them; grouped by unit (one chart per unit, one
    // axis per chart).
    std::vector<std::string> units;
    std::map<std::string, std::vector<const BenchMetric*>> by_unit;
    const BenchSnapshot* leader = nullptr;
    for (const auto& set : sets)
      if ((leader = find_bench(set, bench)) != nullptr) break;
    if (leader == nullptr) continue;
    for (const auto& m : leader->metrics) {
      if (by_unit.find(m.unit) == by_unit.end()) units.push_back(m.unit);
      by_unit[m.unit].push_back(&m);
    }

    std::string body;
    for (const std::string& unit : units) {
      const auto& metrics = by_unit[unit];
      std::vector<ChartSeries> series;
      std::vector<std::vector<std::string>> rows;
      const int kMaxSeries = 8;  // categorical slots; beyond -> table only
      for (std::size_t mi = 0; mi < metrics.size(); ++mi) {
        const BenchMetric* lead = metrics[mi];
        ChartSeries cs;
        cs.label = lead->name + (lead->gate ? "" : " (trend-only)");
        cs.color_slot = static_cast<int>(mi);
        std::vector<std::string> row{lead->name, unit,
                                     lead->gate ? "yes" : "no"};
        for (const auto& set : sets) {
          const BenchSnapshot* snap = find_bench(set, bench);
          const BenchMetric* m = snap ? snap->find(lead->name) : nullptr;
          cs.y.push_back(m ? m->value
                           : std::numeric_limits<double>::quiet_NaN());
          row.push_back(m ? format_number(m->value) : "-");
          if (m && lead->gate && sets.size() >= 2 && &set != &sets.front() &&
              report::drift(*lead, m->value, opts) ==
                  report::Drift::Worse) {
            flagged.push_back({bench, lead->name, set.label,
                               format_number(lead->value),
                               format_number(m->value)});
          }
        }
        rows.push_back(std::move(row));
        if (static_cast<int>(mi) < kMaxSeries) series.push_back(std::move(cs));
      }
      body += line_chart(bench + " — " + unit, x_labels, series, unit);
      if (static_cast<int>(metrics.size()) > kMaxSeries)
        body += "<p class=\"intro\">" +
                escape_text(std::to_string(metrics.size() - kMaxSeries) +
                            " further metrics of this unit are in the table "
                            "only (categorical palette cap).") +
                "</p>\n";
      std::vector<std::string> header{"metric", "unit", "gated"};
      for (const auto& l : x_labels) header.push_back(l);
      body += collapsible(bench + " " + unit + " values",
                          data_table(header, rows));
    }
    out += "<div class=\"panel\"><h3>" + escape_text(bench) + "</h3>\n" +
           body + "</div>\n";
  }

  // Gate flags lead the section — state carried by text + status color.
  std::string head;
  if (sets.size() >= 2) {
    if (flagged.empty()) {
      head = "<p class=\"intro\"><span class=\"flag-good\">PASS</span> — no "
             "gated metric is outside the " +
             escape_text(fmt_fixed(opts.rel_tolerance, 1)) +
             "% tolerance relative to \"" + escape_text(sets.front().label) +
             "\".</p>\n";
    } else {
      head = "<p class=\"intro\"><span class=\"flag-bad\">REGRESSED</span> — " +
             std::to_string(flagged.size()) +
             " gated metric reading(s) outside tolerance relative to \"" +
             escape_text(sets.front().label) + "\":</p>\n" +
             data_table({"bench", "metric", "set", "baseline", "value"},
                        flagged);
    }
  }
  return head + out;
}

}  // namespace tarr::viz
