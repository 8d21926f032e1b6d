#pragma once

#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/sink.hpp"

/// \file record.hpp
/// ScheduleRecorder: a TraceSink that keeps the *structure* of one engine
/// run — every stage with its transfers, every out-of-stage time increment,
/// phases, resource loads and every counter sample — as plain structs.  It
/// is the one in-memory representation of a run: tarr::report analyzes it
/// after the fact (critical path, mapping-attribution diffs), and the
/// Tracer renders its timeline from it at export.
///
/// The record preserves the accounting identity of the engine: summing
/// stage durations and time events in arrival order reproduces
/// Engine::total() bit-exactly (same additions in the same order).
/// Everything downstream in tarr::report leans on that exactness.

namespace tarr::trace {

/// One logical transfer of a recorded stage (local copies included).
struct RecordedTransfer {
  int stage = 0;
  Rank src = 0, dst = 0;
  CoreId src_core = 0, dst_core = 0;
  Bytes bytes = 0;
  Channel channel = Channel::Network;
  double contention = 1.0;
  int attempts = 1;
  Usec duration = 0.0;     ///< priced cost within the stage
  Usec uncontended = 0.0;  ///< cost at contention factor 1.0
  Usec start = 0.0;        ///< simulated start (its stage's start)
};

/// One block-granular copy of a recorded stage, exactly as submitted to
/// Engine::copy/combine (the trace::CopyEvent view).  This is the
/// dataflow-faithful IR tarr::analyze interprets: unlike RecordedTransfer,
/// local copies appear individually and block offsets are preserved.
struct RecordedCopy {
  int stage = 0;
  Rank src = 0, dst = 0;
  int src_off = 0, dst_off = 0;
  int nblocks = 0;
  Bytes bytes = 0;
  bool combining = false;
};

/// One directed resource load of a recorded stage (the stage-start counter
/// samples, in emission order: cable links first, then QPI, each in the
/// cost model's first-touch order).
struct RecordedLoad {
  bool qpi = false;  ///< false: cable link (id = LinkId); true: QPI (NodeId)
  int id = 0;
  int dir = 0;
  double bytes = 0.0;
};

/// One stage event — either a real stage (repeats == 1) or a
/// repeat-compressed block (repeats > 1) referencing the transfers of the
/// stage it repeats.
struct RecordedStage {
  int stage = 0;
  int repeats = 1;
  Usec start = 0.0;
  Usec duration = 0.0;    ///< total across repeats
  Usec retry_wait = 0.0;  ///< per-execution drop-detection wait
  /// StageEvent::transfers: every copy the stage carried, local ones
  /// included, as the engine counted them (num_transfers below counts the
  /// priced transfers this record holds for the stage).
  int transfers = 0;
  int first_transfer = 0; ///< index into ScheduleRecord::transfers
  int num_transfers = 0;
  int first_copy = 0;     ///< index into ScheduleRecord::copies
  int num_copies = 0;
  int first_load = 0;     ///< index into ScheduleRecord::loads
  int num_loads = 0;
};

/// Simulated time added outside any stage (local shuffles, compute).
struct RecordedExtra {
  std::string what;
  Usec start = 0.0;
  Usec duration = 0.0;
  /// For a "local-shuffle" extra: the §V-B block permutation every rank
  /// applied (block b moved to slot dst_of_block[b]).  Empty otherwise.
  std::vector<int> dst_of_block;
  /// Phases recorded before this extra arrived.  Phases and extras share
  /// the timeline's phases track, whose sort breaks ties by arrival.
  int phases_before = 0;
};

/// The recorded run.  `events` interleaves stages and extras in arrival
/// order: kind == Stage indexes `stages`, kind == Extra indexes `extras`.
struct ScheduleRecord {
  struct EventRef {
    enum class Kind { Stage, Extra };
    Kind kind = Kind::Stage;
    int index = 0;
  };

  std::vector<RecordedTransfer> transfers;
  std::vector<RecordedCopy> copies;
  std::vector<RecordedLoad> loads;
  std::vector<RecordedStage> stages;
  std::vector<RecordedExtra> extras;
  std::vector<EventRef> events;
  std::vector<PhaseEvent> phases;
  /// Every counter sample in arrival order, the zero-valued end-of-stage
  /// ones included: the timeline's load tracks.
  std::vector<CounterSample> samples;

  /// Aggregate directed resource loads over the whole run: (id, dir) ->
  /// total bytes, from the engine's per-stage counter samples.
  std::map<std::pair<int, int>, double> link_bytes;
  std::map<std::pair<int, int>, double> qpi_bytes;

  /// Engine::total() as reconstructed from the event stream (bit-exact,
  /// see file comment).
  Usec total = 0.0;

  bool empty() const { return events.empty(); }

  /// Slice accessors resolving a stage's index ranges (repeat-compressed
  /// entries share the slices of the stage they repeat).
  std::span<const RecordedTransfer> transfers_of(const RecordedStage& s) const {
    return {transfers.data() + s.first_transfer,
            static_cast<std::size_t>(s.num_transfers)};
  }
  std::span<const RecordedCopy> copies_of(const RecordedStage& s) const {
    return {copies.data() + s.first_copy,
            static_cast<std::size_t>(s.num_copies)};
  }
  std::span<const RecordedLoad> loads_of(const RecordedStage& s) const {
    return {loads.data() + s.first_load,
            static_cast<std::size_t>(s.num_loads)};
  }

  /// Innermost recorded phase containing simulated time `t`, or "" if none.
  std::string phase_at(Usec t) const;
};

/// See file comment.  Attach to an Engine (set_trace_sink) — on its own or
/// inside a Tracer — run the collective, then take the record.  The
/// recorder tolerates multiple runs into one record; the accounting
/// identity then matches the sum of the runs' totals.
class ScheduleRecorder final : public TraceSink {
 public:
  void on_stage(const StageEvent& e) override;
  void on_transfer(const TransferEvent& e) override;
  void on_copy(const CopyEvent& e) override;
  void on_permute(const PermuteEvent& e) override;
  void on_phase(const PhaseEvent& e) override;
  void on_counter(const CounterSample& s) override;
  void on_time(const TimeEvent& e) override;

  const ScheduleRecord& record() const { return record_; }
  ScheduleRecord take() { return std::move(record_); }

  /// Transfers that arrived after the last real stage event, so no stage
  /// holds them.  Filtered and sampled `.tlog` replays deliver these; the
  /// timeline draws them, record() consumers never see them.
  std::span<const RecordedTransfer> unstaged() const { return pending_; }

 private:
  ScheduleRecord record_;
  /// Transfers/copies of the stage currently being emitted (they arrive
  /// before their StageEvent).
  std::vector<RecordedTransfer> pending_;
  std::vector<RecordedCopy> pending_copies_;
  /// Permutation of the "local-shuffle" TimeEvent about to arrive (the
  /// engine emits the PermuteEvent immediately before it).
  std::vector<int> pending_permute_;
  /// record_.samples from this index on arrived since the last real stage
  /// event; [last_stage_samples_, pending_samples_) are those of the stage
  /// most recently closed (replayed by repeat compression).
  std::size_t pending_samples_ = 0;
  std::size_t last_stage_samples_ = 0;
  /// Engine stage index -> index into record_.stages of its repeats == 1
  /// entry (so repeat-compressed events can share the transfer slice).
  std::map<int, int> stage_entry_;
};

}  // namespace tarr::trace
