#pragma once

#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/metrics.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"

/// \file tracer.hpp
/// The recording TraceSink: stores a run as one ScheduleRecord (plus the
/// wall-clock spans and a registry of the named counters and samples the
/// record does not hold) and renders, at export,
///   1. a simulated-time timeline in Chrome trace-event JSON ("traceEvents"
///      array of complete/counter/metadata events; load the file into
///      Perfetto or chrome://tracing), and
///   2. a MetricsRegistry snapshot (CSV), folded from the record.
/// Its handlers only record, so a traced run costs what a bare recording
/// costs, and a program that needs only the record (tarr::report,
/// tarr::analyze, tlog::read_record) uses the same sink.
///
/// Track layout of the timeline:
///   pid 0 "simulation"  — tid 0 "phases" (collective phases, shuffles),
///                         tid 1 "stages" (engine stage spans),
///                         tid 2+r "rank r" (that rank's outgoing transfer
///                         spans; concurrent spans share the stage start and
///                         are sorted longest-first so they nest), one row
///                         per rank a drawn transfer names, ascending.
///   pid 1 "network load" — one counter track per directed cable
///                          ("cable <id> d<dir>") and per QPI direction
///                          ("qpi <node> d<dir>"), sampled at stage
///                          boundaries (bytes at stage start, 0 at end).
///   pid 2 "mapping (wall clock)" — Fig 7 overhead spans (distance
///                          extraction, each mapping/refinement run).
///
/// Determinism: by default the serialized JSON depends only on the
/// simulated schedule and the seeds, so two same-seed runs produce
/// byte-identical trace files (CI diffs them).  Wall-clock spans are
/// therefore placed on a synthetic ordinal axis by default; asking
/// timeline_json for real wall time stamps their true durations instead and
/// gives up byte-reproducibility of the artifact (the metrics CSV and the
/// ReorderedComm overhead fields always carry the real seconds).

namespace tarr::trace {

/// See file comment.  Install it (obs::Install) around an Engine's
/// construction, run the collective, then export or take the record.  A
/// Tracer tolerates multiple runs into one record; the accounting identity
/// then matches the sum of the runs' totals.
class Tracer final : public TraceSink {
 public:
  void on_stage(const StageEvent& e) override;
  void on_transfer(const TransferEvent& e) override;
  void on_phase(const PhaseEvent& e) override;
  void on_wall_span(const WallSpan& s) override;
  void on_time(const TimeEvent& e) override;
  void add_count(const std::string& name, double delta) override;
  void observe(const std::string& name, double value) override;

  /// The recorded run (see trace/record.hpp).
  const ScheduleRecord& record() const { return record_; }
  ScheduleRecord take() { return std::move(record_); }

  /// Transfers that arrived after the last real stage event, so no stage
  /// holds them.  Filtered `.tlog` replays deliver these; the timeline
  /// and the metrics draw them, record() consumers never see them.
  std::span<const RecordedTransfer> unstaged() const { return pending_; }

  /// The metrics of the run: the named counters and samples, then the
  /// record folded in arrival order — every stage with its transfers and
  /// loads, once per execution, the unstaged transfers, phases, time
  /// events and wall spans.
  MetricsRegistry metrics() const;

  /// Render the timeline as Chrome trace-event JSON; `real_wall_time`
  /// stamps the wall spans' measured durations (see file comment).
  std::string timeline_json(bool real_wall_time = false) const;

 private:
  ScheduleRecord record_;
  /// Transfers of the stage currently being emitted, and their copies
  /// (they arrive before their StageEvent).
  std::vector<RecordedTransfer> pending_;
  std::vector<Copy> pending_copies_;
  /// Engine stage index -> index into record_.stages of its repeats == 1
  /// entry (so repeat-compressed events can share the transfer slice).
  std::map<int, int> stage_entry_;
  /// add_count and observe: the counters and samples the record lacks.
  MetricsRegistry named_;
  std::vector<WallSpan> wall_spans_;
};

}  // namespace tarr::trace
