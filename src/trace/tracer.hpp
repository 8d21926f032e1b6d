#pragma once

#include <string>
#include <vector>

#include "trace/metrics.hpp"
#include "trace/sink.hpp"

/// \file tracer.hpp
/// The concrete TraceSink: buffers every event of a run and exports
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
  bool timeline = true;      ///< collect timeline events
  bool real_wall_time = false;  ///< see file comment (breaks byte identity)
};

/// One buffered complete-event ("ph":"X") of the timeline, exposed for
/// tests that validate span nesting without re-parsing the JSON.
struct TimelineSpan {
  int pid = 0;
  int tid = 0;
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  std::string args_json;  ///< serialized args object ("{}" when empty)
};

/// See file comment.
class Tracer final : public TraceSink {
 public:
  explicit Tracer(TracerOptions opts = TracerOptions{});

  void on_stage(const StageEvent& e) override;
  void on_transfer(const TransferEvent& e) override;
  void on_phase(const PhaseEvent& e) override;
  void on_counter(const CounterSample& s) override;
  void on_wall_span(const WallSpan& s) override;
  void on_time(const TimeEvent& e) override;
  void add_count(const std::string& name, double delta) override;
  void observe(const std::string& name, double value) override;

  const TracerOptions& options() const { return opts_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Buffered spans in emission order (before the serialization sort).
  const std::vector<TimelineSpan>& spans() const { return spans_; }

  /// Serialize the timeline to Chrome trace-event JSON.
  std::string timeline_json() const;

  /// Write timeline_json() to a file; throws tarr::Error on I/O failure.
  void write_timeline(const std::string& path) const;

  /// Write the metrics CSV to a file; throws tarr::Error on I/O failure.
  void write_metrics(const std::string& path) const;

  /// Fail-fast writability probe for output paths: throws tarr::Error if
  /// `path` cannot be opened for writing, *without* truncating an existing
  /// file (a file created by the probe itself is removed again).  CLIs call
  /// this before a long run so a typo'd --trace path fails immediately
  /// instead of after the simulation.
  static void ensure_writable(const std::string& path);

 private:
  struct CounterPoint {
    std::string track;
    double ts = 0.0;
    double value = 0.0;
  };

  TracerOptions opts_;
  MetricsRegistry metrics_;
  std::vector<TimelineSpan> spans_;
  std::vector<CounterPoint> counters_;
  int max_rank_ = -1;      ///< highest rank seen (labels rank tracks)
  double wall_cursor_ = 0.0;  ///< ordinal/accumulated axis for wall spans
};

}  // namespace tarr::trace
