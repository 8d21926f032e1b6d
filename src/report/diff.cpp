#include "report/diff.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

namespace tarr::report {

std::string ResourceDelta::label() const {
  if (qpi)
    return "qpi node " + std::to_string(id) + " dir " + std::to_string(dir);
  return "cable " + std::to_string(id) + " dir " + std::to_string(dir);
}

namespace {

/// Merge the two runs' load totals into per-resource deltas, in (qpi, id,
/// dir) order (resources absent from a run contribute zero).
std::vector<ResourceDelta> collect_resources(const trace::ScheduleRecord& a,
                                             const trace::ScheduleRecord& b) {
  std::map<std::tuple<bool, int, int>, ResourceDelta> merged;
  const auto entry = [&merged](const trace::Load& l) -> ResourceDelta& {
    ResourceDelta& d = merged[{l.qpi, l.id, l.dir}];
    d.qpi = l.qpi;
    d.id = l.id;
    d.dir = l.dir;
    return d;
  };
  for (const trace::Load& l : a.load_totals()) entry(l).bytes_a = l.bytes;
  for (const trace::Load& l : b.load_totals()) entry(l).bytes_b = l.bytes;
  std::vector<ResourceDelta> out;
  for (const auto& [key, d] : merged)
    if (d.delta() != 0.0) out.push_back(d);
  return out;
}

}  // namespace

MappingDiff diff_runs(const trace::ScheduleRecord& a,
                      const trace::ScheduleRecord& b,
                      const topology::Machine& machine, int top_k) {
  MappingDiff diff;
  diff.path_a = analyze_critical_path(a, machine);
  diff.path_b = analyze_critical_path(b, machine);
  diff.total_a = diff.path_a.total;
  diff.total_b = diff.path_b.total;
  diff.improvement_percent =
      diff.total_a != 0.0
          ? (diff.total_a - diff.total_b) / diff.total_a * 100.0
          : 0.0;

  const auto flows_a = channel_flows(a, machine);
  const auto flows_b = channel_flows(b, machine);
  for (const auto& [ch, f] : flows_a) diff.channels[ch].a = f;
  for (const auto& [ch, f] : flows_b) diff.channels[ch].b = f;

  std::vector<ResourceDelta> deltas = collect_resources(a, b);
  // Deterministic ordering: magnitude first, then the (qpi, id, dir)
  // identity as a tie-break so equal-magnitude resources list stably.
  std::sort(deltas.begin(), deltas.end(),
            [](const ResourceDelta& x, const ResourceDelta& y) {
              if (x.delta() != y.delta()) return x.delta() < y.delta();
              if (x.qpi != y.qpi) return !x.qpi;
              if (x.id != y.id) return x.id < y.id;
              return x.dir < y.dir;
            });
  for (const auto& d : deltas) {
    if (d.delta() < 0.0 &&
        static_cast<int>(diff.relieved.size()) < top_k)
      diff.relieved.push_back(d);
  }
  for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
    if (it->delta() > 0.0 &&
        static_cast<int>(diff.newly_loaded.size()) < top_k)
      diff.newly_loaded.push_back(*it);
  }
  return diff;
}

}  // namespace tarr::report
