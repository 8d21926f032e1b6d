#include "report/diff.hpp"

#include <algorithm>
#include <cmath>

namespace tarr::report {

std::string ResourceDelta::label() const {
  if (qpi)
    return "qpi node " + std::to_string(id) + " dir " + std::to_string(dir);
  return "cable " + std::to_string(id) + " dir " + std::to_string(dir);
}

namespace {

/// Merge the (id, dir) -> bytes maps of the two runs into per-resource
/// deltas (resources absent from a run contribute zero).
void collect_resources(const std::map<std::pair<int, int>, double>& a,
                       const std::map<std::pair<int, int>, double>& b,
                       bool qpi, std::vector<ResourceDelta>& out) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    ResourceDelta d;
    d.qpi = qpi;
    if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
      d.id = ia->first.first;
      d.dir = ia->first.second;
      d.bytes_a = ia->second;
      ++ia;
    } else if (ia == a.end() || ib->first < ia->first) {
      d.id = ib->first.first;
      d.dir = ib->first.second;
      d.bytes_b = ib->second;
      ++ib;
    } else {
      d.id = ia->first.first;
      d.dir = ia->first.second;
      d.bytes_a = ia->second;
      d.bytes_b = ib->second;
      ++ia;
      ++ib;
    }
    if (d.delta() != 0.0) out.push_back(d);
  }
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

  std::vector<ResourceDelta> deltas;
  collect_resources(a.link_bytes, b.link_bytes, /*qpi=*/false, deltas);
  collect_resources(a.qpi_bytes, b.qpi_bytes, /*qpi=*/true, deltas);
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
