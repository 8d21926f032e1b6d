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

void ScheduleRecorder::on_transfer(const TransferEvent& e) {
  pending_.push_back(RecordedTransfer{e.stage, e.src_rank, e.dst_rank,
                                      e.src_core, e.dst_core, e.bytes,
                                      e.channel, e.contention, e.attempts,
                                      e.duration, e.uncontended, e.start});
  pending_copies_.insert(pending_copies_.end(), e.copies.begin(),
                         e.copies.end());
}

void ScheduleRecorder::on_stage(const StageEvent& e) {
  RecordedStage s;
  s.stage = e.stage;
  s.repeats = e.repeats;
  s.start = e.start;
  s.duration = e.duration;
  s.retry_wait = e.retry_wait;
  s.transfers = e.transfers;
  if (e.repeats == 1) {
    // A real stage: adopt the transfers/copies that arrived since the last
    // stage event (the engine emits them before the stage itself), and the
    // loads the stage event carries.
    s.first_transfer = static_cast<int>(record_.transfers.size());
    s.num_transfers = static_cast<int>(pending_.size());
    record_.transfers.insert(record_.transfers.end(), pending_.begin(),
                             pending_.end());
    pending_.clear();
    s.first_copy = static_cast<int>(record_.copies.size());
    s.num_copies = static_cast<int>(pending_copies_.size());
    record_.copies.insert(record_.copies.end(), pending_copies_.begin(),
                          pending_copies_.end());
    pending_copies_.clear();
    s.first_load = static_cast<int>(record_.loads.size());
    s.num_loads = static_cast<int>(e.loads.size());
    record_.loads.insert(record_.loads.end(), e.loads.begin(), e.loads.end());
    for (const Load& l : e.loads)
      (l.qpi ? record_.qpi_bytes : record_.link_bytes)[{l.id, l.dir}] +=
          l.bytes;
    stage_entry_[e.stage] =
        static_cast<int>(record_.stages.size());
  } else {
    // Repeat compression re-executes the stage just ended: share its
    // transfer/copy/load slices (the repeat event itself carries none) and
    // replay its resource loads once per extra execution.
    const auto it = stage_entry_.find(e.stage);
    if (it != stage_entry_.end()) {
      const RecordedStage& orig = record_.stages[it->second];
      s.first_transfer = orig.first_transfer;
      s.num_transfers = orig.num_transfers;
      s.first_copy = orig.first_copy;
      s.num_copies = orig.num_copies;
      s.first_load = orig.first_load;
      s.num_loads = orig.num_loads;
      for (const Load& l : record_.loads_of(orig))
        (l.qpi ? record_.qpi_bytes : record_.link_bytes)[{l.id, l.dir}] +=
            l.bytes * static_cast<double>(e.repeats);
    }
  }
  record_.events.push_back(
      {ScheduleRecord::EventRef::Kind::Stage,
       static_cast<int>(record_.stages.size())});
  record_.stages.push_back(std::move(s));
  record_.total += e.duration;
}

void ScheduleRecorder::on_phase(const PhaseEvent& e) {
  record_.phases.push_back(e);
}

void ScheduleRecorder::on_time(const TimeEvent& e) {
  record_.events.push_back(
      {ScheduleRecord::EventRef::Kind::Extra,
       static_cast<int>(record_.extras.size())});
  record_.extras.push_back(RecordedExtra{
      e.what, e.start, e.duration,
      std::vector<int>(e.dst_of_block.begin(), e.dst_of_block.end()),
      static_cast<int>(record_.phases.size())});
  record_.total += e.duration;
}

}  // namespace tarr::trace
