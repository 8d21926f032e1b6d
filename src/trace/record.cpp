#include "trace/record.hpp"

namespace tarr::trace {

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
