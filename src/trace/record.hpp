#pragma once

#include <span>
#include <string>
#include <vector>

#include "trace/sink.hpp"

/// \file record.hpp
/// ScheduleRecord: the *structure* of one engine run — every stage with its
/// transfers and resource loads, every out-of-stage time increment, phases —
/// as plain structs.  It is the one in-memory representation of a run: the
/// Tracer (trace/tracer.hpp) stores the run in it and renders its timeline
/// and metrics from it at export, and tarr::report analyzes it after the
/// fact (critical path, mapping-attribution diffs).
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

  bool operator==(const RecordedTransfer&) const = default;
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

  bool operator==(const RecordedStage&) const = default;
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

  bool operator==(const RecordedExtra&) const = default;
};

/// The recorded run.  `events` interleaves stages and extras in arrival
/// order: kind == Stage indexes `stages`, kind == Extra indexes `extras`.
struct ScheduleRecord {
  struct EventRef {
    enum class Kind { Stage, Extra };
    Kind kind = Kind::Stage;
    int index = 0;

    bool operator==(const EventRef&) const = default;
  };

  std::vector<RecordedTransfer> transfers;
  /// Every copy of every real stage, grouped by the transfer that moved
  /// it, in transfer order (TransferEvent::copies): a stage's Local
  /// transfers in ascending rank, then its remote ones in submission order.
  /// No schedule of collectives/schedules.hpp mixes local and remote copies
  /// in a stage, and each submits its local copies in ascending rank, so
  /// for them this is submission order.  A stage that mixes them records
  /// its copies grouped by transfer.
  std::vector<Copy> copies;
  /// The loads of every real stage, in stage order (StageEvent::loads).
  std::vector<Load> loads;
  std::vector<RecordedStage> stages;
  std::vector<RecordedExtra> extras;
  std::vector<EventRef> events;
  std::vector<PhaseEvent> phases;

  /// Engine::total() as reconstructed from the event stream (bit-exact,
  /// see file comment).
  Usec total = 0.0;

  bool empty() const { return events.empty(); }
  bool operator==(const ScheduleRecord&) const = default;

  /// Slice accessors resolving a stage's index ranges (repeat-compressed
  /// entries share the slices of the stage they repeat).
  std::span<const RecordedTransfer> transfers_of(const RecordedStage& s) const {
    return {transfers.data() + s.first_transfer,
            static_cast<std::size_t>(s.num_transfers)};
  }
  std::span<const Copy> copies_of(const RecordedStage& s) const {
    return {copies.data() + s.first_copy,
            static_cast<std::size_t>(s.num_copies)};
  }
  std::span<const Load> loads_of(const RecordedStage& s) const {
    return {loads.data() + s.first_load,
            static_cast<std::size_t>(s.num_loads)};
  }

  /// Aggregate directed resource loads over the whole run: one Load per
  /// directed cable link, then one per QPI direction, each kind in
  /// ascending (id, dir), with the bytes of every stage's loads summed in
  /// stage order, once per execution.
  std::vector<Load> load_totals() const;

  /// Innermost recorded phase containing simulated time `t`, or "" if none.
  std::string phase_at(Usec t) const;
};

}  // namespace tarr::trace
