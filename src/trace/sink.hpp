#pragma once

#include <span>
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
/// Cost discipline: a sink reaches the instrumented code only through the
/// ambient channel of prof/obs.hpp — installed with obs::Install around the
/// run it traces, never passed down — and each emission site is exactly one
/// pointer check (an Engine reads the channel once, when it is built).
/// With no sink installed the instrumented code paths are bit-identical to
/// a build that never heard of this header — tracing never perturbs the
/// simulated costs or the payload movement it observes.  A plain TraceSink
/// observes nothing.
///
/// Two clocks appear in the taxonomy and are never mixed on one track:
///  * simulated microseconds (Usec) — stages with their link/QPI loads,
///    transfers, collective phases;
///  * wall-clock seconds — mapping/profiling spans (the Fig 7 overheads).

namespace tarr::trace {

/// Communication channel class of a priced transfer (mirrors the cost
/// model's channel taxonomy; Local is a same-rank memory copy).
enum class Channel { SameComplex, SameSocket, CrossSocket, Network, Local };

const char* to_string(Channel c);

/// One directed resource load of a stage: the bytes the stage's transfers
/// put on a cable link or a QPI direction.
struct Load {
  bool qpi = false;  ///< false: cable link (id = LinkId); true: QPI (NodeId)
  int id = 0;
  int dir = 0;       ///< direction slot (0/1), matching CostModel's convention
  double bytes = 0.0;

  bool operator==(const Load&) const = default;
};

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
  /// Every directed cable and QPI load of the stage: cable links in the
  /// cost model's first-touch order, then QPI directions in theirs.  Valid
  /// for the duration of the call.  Empty for a repeat-compressed event (it
  /// repeats the loads of the stage it names) and without contention
  /// modeling.
  std::span<const Load> loads = {};
};

/// One block-granular copy exactly as submitted to Engine::copy/combine —
/// the schedule-IR view of a stage: source and destination block offsets,
/// block count, and whether the write reduces into the destination
/// (combine) or overwrites it (copy).  tarr::analyze's static dataflow pass
/// interprets these, in events and in the ScheduleRecord alike.
struct Copy {
  int stage = 0;       ///< 0-based engine stage index
  Rank src = 0, dst = 0;
  int src_off = 0;     ///< first block read in src's buffer
  int dst_off = 0;     ///< first block written in dst's buffer
  int nblocks = 0;     ///< contiguous blocks moved
  Bytes bytes = 0;     ///< nblocks * block size
  bool combining = false;  ///< true for Engine::combine (reduction write)

  bool operator==(const Copy&) const = default;
};

/// One priced transfer of a stage (retransmission attempts folded in),
/// with the block copies it moved.
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
  /// The copies this transfer moved, each with the transfer's stage and
  /// endpoints.  A remote transfer moves its one copy (its retransmission
  /// attempts resend it).  Local copies are priced per rank, so a Local
  /// transfer moves every copy its rank made in the stage, in submission
  /// order.  Valid for the duration of the call.
  std::span<const Copy> copies = {};
};

/// A simulated-time span grouping stages: collective phases (intra gather,
/// leader exchange, intra bcast, pipelined superstages), orderfix shuffles.
struct PhaseEvent {
  std::string name;
  Usec start = 0.0;
  Usec duration = 0.0;

  bool operator==(const PhaseEvent&) const = default;
};

/// A wall-clock profiling span: distance extraction, one mapping run, one
/// refinement run — the Fig 7 overhead decomposition.
struct WallSpan {
  std::string name;       ///< e.g. "distance-extraction", "map:RDMH"
  double seconds = 0.0;   ///< measured wall-clock duration
};

/// Simulated time the engine adds *outside* any stage: the §V-B local
/// shuffles of Engine::local_permute_all.  Unlike PhaseEvent — a grouping
/// span over stages that already carry their own durations — a TimeEvent
/// is itself an increment of the simulated clock.  Summing stage durations
/// and time events in emission order reconstructs the engine total
/// bit-exactly, which is the invariant tarr::report's critical-path
/// attribution builds on.
struct TimeEvent {
  std::string what;     ///< "local-shuffle"
  Usec start = 0.0;     ///< simulated clock before the increment
  Usec duration = 0.0;  ///< time added
  /// For a "local-shuffle": the §V-B block permutation every rank applies
  /// in place, block b moving to slot dst_of_block[b] (identity entries
  /// included, one slot per buffer block).  Valid for the duration of the
  /// call.
  std::span<const int> dst_of_block = {};
};

/// See file comment.  All handlers default to no-ops so sinks implement
/// only what they consume.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void on_stage(const StageEvent&) {}
  virtual void on_transfer(const TransferEvent&) {}
  virtual void on_phase(const PhaseEvent&) {}
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

/// Forwards every event to each downstream leg in order, so the one sink
/// the ambient channel holds can feed e.g. a Tracer and a tlog capture at
/// once.
/// Null legs are dropped at construction; every leg must outlive the tee.
class TeeSink final : public TraceSink {
 public:
  explicit TeeSink(std::vector<TraceSink*> legs);

  /// True when every leg passed in was null.
  bool empty() const { return legs_.empty(); }

  void on_stage(const StageEvent& e) override;
  void on_transfer(const TransferEvent& e) override;
  void on_phase(const PhaseEvent& e) override;
  void on_wall_span(const WallSpan& s) override;
  void on_time(const TimeEvent& e) override;
  void add_count(const std::string& name, double delta) override;
  void observe(const std::string& name, double value) override;

 private:
  std::vector<TraceSink*> legs_;
};

}  // namespace tarr::trace
