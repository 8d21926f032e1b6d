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
}

void ScheduleRecorder::on_copy(const CopyEvent& e) {
  pending_copies_.push_back(RecordedCopy{e.stage, e.src, e.dst, e.src_off,
                                         e.dst_off, e.nblocks, e.bytes,
                                         e.combining});
}

void ScheduleRecorder::on_permute(const PermuteEvent& e) {
  pending_permute_ = e.dst_of_block;
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
    // stage-start counter samples as the per-stage load slice.
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
    for (std::size_t i = pending_samples_; i < record_.samples.size(); ++i) {
      const CounterSample& c = record_.samples[i];
      if (c.value > 0.0)  // end-of-stage zero samples carry no load
        record_.loads.push_back(RecordedLoad{
            c.kind == CounterSample::Kind::Qpi, c.id, c.dir, c.value});
    }
    s.num_loads = static_cast<int>(record_.loads.size()) - s.first_load;
    stage_entry_[e.stage] =
        static_cast<int>(record_.stages.size());
    last_stage_samples_ = pending_samples_;
    pending_samples_ = record_.samples.size();
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
    }
    for (std::size_t i = last_stage_samples_; i < pending_samples_; ++i) {
      const CounterSample& c = record_.samples[i];
      if (c.value <= 0.0) continue;
      auto& map = c.kind == CounterSample::Kind::Qpi ? record_.qpi_bytes
                                                     : record_.link_bytes;
      map[{c.id, c.dir}] += c.value * static_cast<double>(e.repeats);
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

void ScheduleRecorder::on_counter(const CounterSample& s) {
  record_.samples.push_back(s);
  if (s.value <= 0.0) return;  // end-of-stage zero samples carry no load
  auto& map = s.kind == CounterSample::Kind::Qpi ? record_.qpi_bytes
                                                 : record_.link_bytes;
  map[{s.id, s.dir}] += s.value;
}

void ScheduleRecorder::on_time(const TimeEvent& e) {
  record_.events.push_back(
      {ScheduleRecord::EventRef::Kind::Extra,
       static_cast<int>(record_.extras.size())});
  record_.extras.push_back(
      RecordedExtra{e.what, e.start, e.duration, std::move(pending_permute_),
                    static_cast<int>(record_.phases.size())});
  pending_permute_.clear();
  record_.total += e.duration;
}

}  // namespace tarr::trace
