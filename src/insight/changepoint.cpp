#include "insight/changepoint.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "common/serialize.hpp"

namespace tarr::insight {

namespace {

struct SeriesPoint {
  int index = 0;  ///< position in the set sequence
  double value = 0.0;
};

struct Series {
  std::string unit;
  bool higher_is_better = false;
  std::vector<SeriesPoint> points;
};

std::string fmt_percent(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", v);
  return buf;
}

}  // namespace

std::vector<ChangePoint> detect_change_points(
    const std::vector<report::SnapshotSet>& sets,
    const ChangePointOptions& opts) {
  // Gather every (bench, metric) series in map order — deterministic no
  // matter how benches are ordered inside each set.
  std::map<std::pair<std::string, std::string>, Series> series;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    for (const auto& snap : sets[i].snapshots) {
      for (const auto& m : snap.metrics) {
        if (opts.gated_only && !m.gate) continue;
        Series& s = series[{snap.bench, m.name}];
        if (s.points.empty()) {
          s.unit = m.unit;
          s.higher_is_better = m.higher_is_better;
        }
        s.points.push_back({static_cast<int>(i), m.value});
      }
    }
  }

  std::vector<ChangePoint> out;
  for (const auto& [key, s] : series) {
    if (s.points.size() < 2) continue;
    // Current flat segment: exact running sum over the points it covers.
    double seg_sum = s.points.front().value;
    long long seg_n = 1;
    int seg_last_index = s.points.front().index;
    for (std::size_t i = 1; i < s.points.size(); ++i) {
      const SeriesPoint& p = s.points[i];
      const double mean = seg_sum / static_cast<double>(seg_n);
      const double tolerance = std::max(
          opts.abs_threshold, opts.rel_threshold / 100.0 * std::fabs(mean));
      if (std::fabs(p.value - mean) > tolerance) {
        ChangePoint cp;
        cp.bench = key.first;
        cp.metric = key.second;
        cp.unit = s.unit;
        cp.index = p.index;
        cp.before_label = sets[static_cast<std::size_t>(seg_last_index)].label;
        cp.after_label = sets[static_cast<std::size_t>(p.index)].label;
        cp.before = mean;
        cp.after = p.value;
        cp.change_percent =
            mean == 0.0 ? 0.0 : (p.value - mean) / std::fabs(mean) * 100.0;
        const bool went_up = p.value > mean;
        cp.regression = s.higher_is_better ? !went_up : went_up;
        out.push_back(std::move(cp));
        // Restart the segment at the new level.
        seg_sum = p.value;
        seg_n = 1;
      } else {
        seg_sum += p.value;
        ++seg_n;
      }
      seg_last_index = p.index;
    }
  }
  return out;
}

std::string render_change_points(const std::vector<ChangePoint>& points) {
  std::string out = "trajectory: " + std::to_string(points.size()) +
                    " change point(s)\n";
  if (points.empty()) {
    out += "no change points - every gated metric held its level within "
           "tolerance.\n";
    return out;
  }
  for (const auto& cp : points) {
    out += "\n" + cp.bench + " / " + cp.metric + " (" + cp.unit + ")\n";
    out += "  stepped " + fmt_percent(cp.change_percent) + " between '" +
           cp.before_label + "' and '" + cp.after_label + "': " +
           format_number(cp.before) + " -> " + format_number(cp.after) + "\n";
    out += cp.regression ? "  direction: REGRESSION\n"
                         : "  direction: improvement\n";
  }
  return out;
}

}  // namespace tarr::insight
