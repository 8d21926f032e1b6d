#include "trace/record.hpp"

#include <map>
#include <tuple>

namespace tarr::trace {

std::vector<Load> ScheduleRecord::load_totals() const {
  std::map<std::tuple<bool, int, int>, double> bytes;
  for (const RecordedStage& s : stages)
    for (const Load& l : loads_of(s))
      bytes[{l.qpi, l.id, l.dir}] += l.bytes * static_cast<double>(s.repeats);
  std::vector<Load> out;
  out.reserve(bytes.size());
  for (const auto& [key, b] : bytes)
    out.push_back({std::get<0>(key), std::get<1>(key), std::get<2>(key), b});
  return out;
}

std::string ScheduleRecord::phase_at(Usec t) const {
  // Innermost = the shortest phase whose [start, start+duration] interval
  // contains t (phases nest, so the shortest containing one is innermost).
  const PhaseEvent* best = nullptr;
  for (const auto& p : phases) {
    if (t < p.start || t > p.start + p.duration) continue;
    if (best == nullptr || p.duration < best->duration) best = &p;
  }
  return best == nullptr ? std::string() : best->name;
}

}  // namespace tarr::trace
