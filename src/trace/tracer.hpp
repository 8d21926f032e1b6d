#pragma once

#include <string>
#include <vector>

#include "trace/metrics.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"

/// \file tracer.hpp
/// The concrete TraceSink: stores a run as one ScheduleRecord (plus its
/// MetricsRegistry and the wall-clock spans) and renders, at export,
///   1. a simulated-time timeline in Chrome trace-event JSON ("traceEvents"
///      array of complete/counter/metadata events; load the file into
///      Perfetto or chrome://tracing), and
///   2. a MetricsRegistry snapshot (CSV).
///
/// Track layout of the timeline:
///   pid 0 "simulation"  — tid 0 "phases" (collective phases, shuffles),
///                         tid 1 "stages" (engine stage spans),
///                         tid 2+r "rank r" (that rank's outgoing transfer
///                         spans; concurrent spans share the stage start and
///                         are sorted longest-first so they nest).
///   pid 1 "network load" — one counter track per directed cable
///                          ("cable <id> d<dir>") and per QPI direction
///                          ("qpi <node> d<dir>"), sampled at stage
///                          boundaries (bytes at stage start, 0 at end).
///   pid 2 "mapping (wall clock)" — Fig 7 overhead spans (distance
///                          extraction, each mapping/refinement run).
///
/// Determinism: with default options the serialized JSON depends only on
/// the simulated schedule and the seeds, so two same-seed runs produce
/// byte-identical trace files (CI diffs them).  Wall-clock spans are
/// therefore placed on a synthetic ordinal axis by default; opting in to
/// `real_wall_time` stamps their true durations instead and gives up
/// byte-reproducibility of the artifact (the metrics CSV and the
/// ReorderedComm overhead fields always carry the real seconds).

namespace tarr::trace {

/// Behavior knobs of a Tracer.
struct TracerOptions {
  bool real_wall_time = false;  ///< see file comment (breaks byte identity)
};

/// See file comment.
class Tracer final : public TraceSink {
 public:
  explicit Tracer(TracerOptions opts = TracerOptions{});

  void on_stage(const StageEvent& e) override;
  void on_transfer(const TransferEvent& e) override;
  void on_copy(const CopyEvent& e) override;
  void on_permute(const PermuteEvent& e) override;
  void on_phase(const PhaseEvent& e) override;
  void on_counter(const CounterSample& s) override;
  void on_wall_span(const WallSpan& s) override;
  void on_time(const TimeEvent& e) override;
  void add_count(const std::string& name, double delta) override;
  void observe(const std::string& name, double value) override;

  /// The recorded run (see trace/record.hpp).
  const ScheduleRecord& record() const { return recorder_.record(); }
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Render the timeline as Chrome trace-event JSON.
  std::string timeline_json() const;

 private:
  TracerOptions opts_;
  ScheduleRecorder recorder_;
  MetricsRegistry metrics_;
  std::vector<WallSpan> wall_spans_;
};

}  // namespace tarr::trace
