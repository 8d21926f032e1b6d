#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

/// \file sink.hpp
/// Event vocabulary and sink interface of tarr::trace, the observability
/// subsystem (see docs/OBSERVABILITY.md).
///
/// The paper's whole argument is about *where* bytes flow: Figs 3-4
/// attribute the speedups to relieved leaf oversubscription and QPI sharing,
/// and Fig 7 accounts for the wall-clock overhead of distance extraction and
/// each mapping heuristic.  tarr::trace makes those flows visible: the
/// engine, the cost model, the collectives, the mapping stack and the fault
/// campaign all emit typed events through a TraceSink, and the concrete
/// Tracer (trace/tracer.hpp) turns them into a Chrome trace-event timeline
/// (Perfetto-loadable) plus a metrics registry snapshot.
///
/// Cost discipline: every instrumented component holds a plain
/// `TraceSink*` that defaults to nullptr (pure-function layers read the
/// ambient channel of prof/obs.hpp instead), and each emission site is
/// exactly one pointer check.  With no sink installed the instrumented code
/// paths are bit-identical to a build that never heard of this header —
/// tracing never perturbs the simulated costs or the payload movement it
/// observes.  A plain TraceSink observes nothing.
///
/// Two clocks appear in the taxonomy and are never mixed on one track:
///  * simulated microseconds (Usec) — stages, transfers, collective phases,
///    link/QPI load counters;
///  * wall-clock seconds — mapping/profiling spans (the Fig 7 overheads).

namespace tarr::trace {

/// Communication channel class of a priced transfer (mirrors the cost
/// model's channel taxonomy; Local is a same-rank memory copy).
enum class Channel { SameComplex, SameSocket, CrossSocket, Network, Local };

const char* to_string(Channel c);

/// One engine stage (a set of concurrent transfers priced together).
struct StageEvent {
  int stage = 0;       ///< 0-based engine stage index
  int transfers = 0;   ///< copies the stage carried (local ones included)
  int repeats = 1;     ///< compressed identical executions (repeat_last_stage)
  Usec start = 0.0;    ///< simulated start time
  Usec duration = 0.0; ///< stage cost (retry waits and local copies included)
  /// Drop-detection timeout wait serialized in front of the stage's
  /// (contention-priced) retransmissions; 0 without transient faults.  For
  /// a repeat-compressed event this is the per-execution wait, not the
  /// total across repeats.
  Usec retry_wait = 0.0;
};

/// One logical transfer of a stage (retransmission attempts folded in).
struct TransferEvent {
  int stage = 0;
  Rank src_rank = 0;
  Rank dst_rank = 0;
  CoreId src_core = 0;
  CoreId dst_core = 0;
  Bytes bytes = 0;
  Channel channel = Channel::Network;
  double contention = 1.0;  ///< slowdown factor over the uncontended floor
  int attempts = 1;         ///< 1 + transient-fault retransmissions
  Usec start = 0.0;
  Usec duration = 0.0;      ///< priced cost of this transfer
  /// Cost the transfer would have had alone on its channel (contention
  /// factor 1.0): latency terms plus the per-pair bandwidth floor.
  /// duration - uncontended is the stall the stage's resource sharing
  /// (including retransmission reloads) inflicted — the quantity
  /// tarr::report splits into serialization vs. contention.
  Usec uncontended = 0.0;
};

/// A simulated-time span grouping stages: collective phases (intra gather,
/// leader exchange, intra bcast, pipelined superstages), orderfix shuffles.
struct PhaseEvent {
  std::string name;
  Usec start = 0.0;
  Usec duration = 0.0;
};

/// One per-stage load sample of a shared resource (emitted at stage start
/// with the stage's byte load, and again with 0 at stage end).
struct CounterSample {
  enum class Kind { Link, Qpi };
  Kind kind = Kind::Link;
  int id = 0;   ///< LinkId, or NodeId for QPI
  int dir = 0;  ///< direction slot (0/1), matching CostModel's convention
  Usec ts = 0.0;
  double value = 0.0;  ///< bytes loaded onto the resource this stage
};

/// A wall-clock profiling span: distance extraction, one mapping run, one
/// refinement run — the Fig 7 overhead decomposition.
struct WallSpan {
  std::string name;       ///< e.g. "distance-extraction", "map:RDMH"
  double seconds = 0.0;   ///< measured wall-clock duration
};

/// One engine-level copy exactly as submitted to Engine::copy/combine —
/// the schedule-IR view of a stage, at block granularity.  Where a
/// TransferEvent describes *pricing* (local copies aggregated per rank,
/// channel/contention attached), a CopyEvent describes *dataflow*: source
/// and destination block offsets, block count, and whether the write
/// reduces into the destination (combine) or overwrites it (copy).  Local
/// copies are emitted individually here even though pricing folds them
/// into one per-rank TransferEvent.  tarr::analyze's static dataflow pass
/// is built on this event.
struct CopyEvent {
  int stage = 0;       ///< 0-based engine stage index
  Rank src = 0;
  Rank dst = 0;
  int src_off = 0;     ///< first block read in src's buffer
  int dst_off = 0;     ///< first block written in dst's buffer
  int nblocks = 0;     ///< contiguous blocks moved
  Bytes bytes = 0;     ///< nblocks * block size
  bool combining = false;  ///< true for Engine::combine (reduction write)
};

/// One §V-B local shuffle (Engine::local_permute_all): every rank applies
/// the same in-place block permutation, block b moving to slot
/// dst_of_block[b].  Emitted immediately before the paired "local-shuffle"
/// TimeEvent that prices it; identity entries are included so the vector
/// always has one slot per buffer block.
struct PermuteEvent {
  std::vector<int> dst_of_block;
  Usec start = 0.0;
  Usec duration = 0.0;
};

/// Simulated time the engine adds *outside* any stage: §V-B local shuffles
/// (Engine::local_permute_all) and Engine::add_time (application compute
/// phases, one-time overheads).  Unlike PhaseEvent — a grouping span over
/// stages that already carry their own durations — a TimeEvent is itself an
/// increment of the simulated clock.  Summing stage durations and time
/// events in emission order reconstructs the engine total bit-exactly,
/// which is the invariant tarr::report's critical-path attribution builds
/// on.
struct TimeEvent {
  std::string what;     ///< "local-shuffle", "compute", caller-provided
  Usec start = 0.0;     ///< simulated clock before the increment
  Usec duration = 0.0;  ///< time added
};

/// See file comment.  All handlers default to no-ops so sinks implement
/// only what they consume.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void on_stage(const StageEvent&) {}
  virtual void on_transfer(const TransferEvent&) {}
  virtual void on_copy(const CopyEvent&) {}
  virtual void on_permute(const PermuteEvent&) {}
  virtual void on_phase(const PhaseEvent&) {}
  virtual void on_counter(const CounterSample&) {}
  virtual void on_wall_span(const WallSpan&) {}
  virtual void on_time(const TimeEvent&) {}

  /// Named decision counter (additive): mapping placements and tie-breaks,
  /// bisection calls, refinement swaps accepted/rejected, selector picks.
  virtual void add_count(const std::string& name, double delta) {
    (void)name;
    (void)delta;
  }

  /// One sample of a named distribution (per-pair probe residuals, prof
  /// scope self-times, anything whose *shape* matters).  Concrete sinks
  /// feed a deterministic histogram (MetricsRegistry::observe); the default
  /// is a no-op so emission sites stay one pointer check.
  virtual void observe(const std::string& name, double value) {
    (void)name;
    (void)value;
  }
};

/// Forwards every event to each downstream leg in order, so a single
/// emission point — the engine holds exactly one sink pointer — can feed
/// e.g. a Tracer and a tlog capture at once.
/// Null legs are dropped at construction; every leg must outlive the tee.
class TeeSink final : public TraceSink {
 public:
  explicit TeeSink(std::vector<TraceSink*> legs);

  /// True when every leg passed in was null.
  bool empty() const { return legs_.empty(); }

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

 private:
  std::vector<TraceSink*> legs_;
};

}  // namespace tarr::trace
