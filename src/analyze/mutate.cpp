#include "analyze/mutate.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace tarr::analyze {
namespace {

using trace::RecordedCopy;
using trace::RecordedStage;
using trace::RecordedTransfer;
using trace::ScheduleRecord;

/// Re-derive every start time (and the total) from the event order, the
/// same replay the analyzer's StageOrder pass performs — so a mutation
/// that reorders durations stays clock-consistent and is caught by the
/// property it actually breaks, not by a trivial timestamp check.
void recompute_clock(ScheduleRecord& rec) {
  Usec clock = 0.0;
  for (const auto& ev : rec.events) {
    if (ev.kind == ScheduleRecord::EventRef::Kind::Stage) {
      RecordedStage& s = rec.stages[ev.index];
      s.start = clock;
      clock += s.duration;
    } else {
      trace::RecordedExtra& e = rec.extras[ev.index];
      e.start = clock;
      clock += e.duration;
    }
  }
  rec.total = clock;
}

void erase_copy(ScheduleRecord& rec, int idx) {
  rec.copies.erase(rec.copies.begin() + idx);
  for (RecordedStage& s : rec.stages) {
    if (s.first_copy > idx)
      --s.first_copy;
    else if (idx < s.first_copy + s.num_copies)
      --s.num_copies;
  }
}

void erase_transfer(ScheduleRecord& rec, int idx) {
  rec.transfers.erase(rec.transfers.begin() + idx);
  for (RecordedStage& s : rec.stages) {
    if (s.first_transfer > idx)
      --s.first_transfer;
    else if (idx < s.first_transfer + s.num_transfers)
      --s.num_transfers;
  }
}

void duplicate_copy(ScheduleRecord& rec, int idx) {
  const RecordedCopy dup = rec.copies[idx];
  rec.copies.insert(rec.copies.begin() + idx + 1, dup);
  for (RecordedStage& s : rec.stages) {
    if (s.first_copy > idx)
      ++s.first_copy;
    else if (idx < s.first_copy + s.num_copies)
      ++s.num_copies;
  }
}

void duplicate_transfer(ScheduleRecord& rec, int idx) {
  const RecordedTransfer dup = rec.transfers[idx];
  rec.transfers.insert(rec.transfers.begin() + idx + 1, dup);
  for (RecordedStage& s : rec.stages) {
    if (s.first_transfer > idx)
      ++s.first_transfer;
    else if (idx < s.first_transfer + s.num_transfers)
      ++s.num_transfers;
  }
}

/// Global index of the priced transfer matching a remote copy, or -1.
int matching_transfer(const ScheduleRecord& rec, const RecordedCopy& cp) {
  for (const RecordedStage& s : rec.stages) {
    if (s.stage != cp.stage) continue;
    for (int i = s.first_transfer; i < s.first_transfer + s.num_transfers;
         ++i) {
      const RecordedTransfer& t = rec.transfers[i];
      if (t.channel != trace::Channel::Local && t.src == cp.src &&
          t.dst == cp.dst && t.bytes == cp.bytes)
        return i;
    }
  }
  return -1;
}

std::string edge(const RecordedCopy& cp) {
  return "rank " + std::to_string(cp.src) + " -> rank " +
         std::to_string(cp.dst) + " (" + std::to_string(cp.bytes) +
         " bytes, stage " + std::to_string(cp.stage) + ")";
}

std::string drop_transfer(ScheduleRecord& rec, Rng& rng) {
  // Prefer the last stage with remote traffic: a late drop leaves no later
  // stage to mask it, so detection falls to the final-state contract.
  int last = -1;
  for (const RecordedCopy& cp : rec.copies)
    if (cp.src != cp.dst) last = std::max(last, cp.stage);
  TARR_REQUIRE(last >= 0, "drop-transfer: schedule has no remote copies");
  std::vector<int> victims;
  for (int i = 0; i < static_cast<int>(rec.copies.size()); ++i)
    if (rec.copies[i].src != rec.copies[i].dst &&
        rec.copies[i].stage == last)
      victims.push_back(i);
  const int idx = victims[rng.next_below(victims.size())];
  const RecordedCopy cp = rec.copies[idx];
  const int t = matching_transfer(rec, cp);
  TARR_REQUIRE(t >= 0, "drop-transfer: copy has no priced transfer");
  erase_copy(rec, idx);
  erase_transfer(rec, t);
  return "dropped copy " + edge(cp);
}

std::string swap_stages(ScheduleRecord& rec, Rng& rng) {
  TARR_REQUIRE(rec.stages.size() >= 2,
               "swap-stages: schedule has fewer than two stages");
  const int i = static_cast<int>(rng.next_below(rec.stages.size() - 1));
  std::swap(rec.stages[i], rec.stages[i + 1]);
  // Renumber consistently: the structural passes must stay green so the
  // dataflow pass is what rejects the reordered schedule.
  for (int k = i; k <= i + 1; ++k) {
    RecordedStage& s = rec.stages[k];
    const int renamed = rec.stages[k == i ? i + 1 : i].stage;
    for (int c = s.first_copy; c < s.first_copy + s.num_copies; ++c)
      rec.copies[c].stage = renamed;
    for (int t = s.first_transfer; t < s.first_transfer + s.num_transfers;
         ++t)
      rec.transfers[t].stage = renamed;
  }
  std::swap(rec.stages[i].stage, rec.stages[i + 1].stage);
  recompute_clock(rec);
  return "swapped stages " + std::to_string(rec.stages[i].stage) + " and " +
         std::to_string(rec.stages[i + 1].stage);
}

std::string truncate_bytes(ScheduleRecord& rec, Rng& rng) {
  std::vector<int> victims;
  for (int i = 0; i < static_cast<int>(rec.transfers.size()); ++i)
    if (rec.transfers[i].channel != trace::Channel::Local &&
        rec.transfers[i].bytes >= 2)
      victims.push_back(i);
  TARR_REQUIRE(!victims.empty(),
               "truncate-bytes: no remote transfer of >= 2 bytes");
  RecordedTransfer& t = rec.transfers[victims[rng.next_below(victims.size())]];
  const Bytes before = t.bytes;
  t.bytes /= 2;
  return "truncated transfer rank " + std::to_string(t.src) + " -> rank " +
         std::to_string(t.dst) + " (stage " + std::to_string(t.stage) +
         ") from " + std::to_string(before) + " to " +
         std::to_string(t.bytes) + " bytes";
}

std::string duplicate_block(ScheduleRecord& rec, Rng& rng) {
  std::vector<int> victims;
  for (int i = 0; i < static_cast<int>(rec.copies.size()); ++i)
    if (rec.copies[i].src != rec.copies[i].dst && !rec.copies[i].combining)
      victims.push_back(i);
  TARR_REQUIRE(!victims.empty(),
               "duplicate-block: no remote non-combining copy");
  const int idx = victims[rng.next_below(victims.size())];
  const RecordedCopy cp = rec.copies[idx];
  const int t = matching_transfer(rec, cp);
  TARR_REQUIRE(t >= 0, "duplicate-block: copy has no priced transfer");
  duplicate_copy(rec, idx);
  duplicate_transfer(rec, t);
  return "duplicated copy " + edge(cp);
}

}  // namespace

const char* to_string(Mutation m) {
  switch (m) {
    case Mutation::DropTransfer:
      return "drop-transfer";
    case Mutation::SwapStages:
      return "swap-stages";
    case Mutation::TruncateBytes:
      return "truncate-bytes";
    case Mutation::DuplicateBlock:
      return "duplicate-block";
  }
  return "?";
}

std::string apply_mutation(ScheduleRecord& rec, Mutation m,
                           std::uint64_t seed) {
  for (const RecordedStage& s : rec.stages)
    TARR_REQUIRE(s.repeats == 1,
                 "apply_mutation: record is repeat-compressed; mutate "
                 "Data-mode records");
  Rng rng(seed);
  switch (m) {
    case Mutation::DropTransfer:
      return drop_transfer(rec, rng);
    case Mutation::SwapStages:
      return swap_stages(rec, rng);
    case Mutation::TruncateBytes:
      return truncate_bytes(rec, rng);
    case Mutation::DuplicateBlock:
      return duplicate_block(rec, rng);
  }
  TARR_REQUIRE(false, "apply_mutation: unknown mutation");
  return {};
}

}  // namespace tarr::analyze
