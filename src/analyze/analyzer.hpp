#pragma once

#include <string>
#include <vector>

#include "analyze/contract.hpp"
#include "topology/machine.hpp"
#include "trace/record.hpp"

/// \file analyzer.hpp
/// The static schedule certifier of tarr::analyze.
///
/// Input: a recorded schedule (trace::ScheduleRecord — the IR a
/// trace::Tracer rebuilds from the engine's trace stream) plus the
/// collective's Contract.  Output: a Certificate — either a clean bill
/// ("this schedule provably computes the contract on this machine") or a
/// list of structured, human-readable counterexamples.  Nothing is
/// executed: every property below is proved by walking the IR.
///
/// Properties checked, in pass order:
///  * Structure         — the record is shaped like the contract says
///                        (ranks/blocks in range, dataflow-faithful);
///  * StageOrder        — stage indices are consecutive and the recorded
///                        start times replay the engine's clock bit-exactly;
///                        with the stage-synchronous execution model this
///                        is the deadlock-freedom obligation: a schedule
///                        can only deadlock by reading data a later stage
///                        delivers, which the dataflow pass flags as an
///                        uninitialized read;
///  * SelfTransfer      — no transfer is priced to its own rank and no copy
///                        targets its own source slot;
///  * ByteConservation  — every copy's bytes equal nblocks x block size,
///                        and per stage the multiset of submitted remote
///                        copies matches the multiset of priced transfers
///                        (send/recv matching: nothing sent unpriced,
///                        nothing priced unsent, no bytes lost in flight);
///  * WriteConflict     — no block is plain-written twice, or written and
///                        combined, in one stage (stage semantics make the
///                        result order-dependent);
///  * UninitializedRead — no copy reads a block no seed or earlier write
///                        defined;
///  * ContractViolation — after abstract interpretation, every constrained
///                        (rank, block) holds exactly its required origin
///                        set;
///  * CapacityHazard    — (warning) a stage's static directed cable/QPI
///                        load exceeds the configured bound;
///  * CounterMismatch   — the statically recomputed per-stage resource
///                        loads differ from the counters the engine traced
///                        (the static model and the dynamic cost model
///                        disagree — one of them is wrong).

namespace tarr::analyze {

enum class Property {
  Structure,
  StageOrder,
  SelfTransfer,
  ByteConservation,
  WriteConflict,
  UninitializedRead,
  ContractViolation,
  CapacityHazard,
  CounterMismatch,
};

const char* to_string(Property p);

enum class Severity { Error, Warning };

/// One counterexample.  `message` is deterministic byte-for-byte across
/// runs on the same record (no pointers, no iteration-order dependence,
/// locale-independent formatting) — tests diff it verbatim.
struct Finding {
  Property property = Property::Structure;
  Severity severity = Severity::Error;
  int stage = -1;  ///< engine stage index, or -1 if not stage-specific
  std::string message;
};

/// The CapacityHazard bounds; every other pass always runs.  The dataflow
/// passes need a dataflow-faithful record: one recorded per executed stage,
/// no repeat compression (run the engine in Data mode to get one).  The
/// counter cross-check is skipped when the record carries no counters
/// (e.g. contention modeling was off).
struct AnalyzeOptions {
  /// Flag any stage whose static directed cable load exceeds this multiple
  /// of the link's capacity (CapacityHazard warning); <= 0 disables.
  double max_link_load = 0.0;

  /// Same bound for per-direction QPI byte loads, in absolute bytes
  /// (QPI capacity is a cost-model parameter, not a topology property);
  /// <= 0 disables.
  double max_qpi_bytes = 0.0;
};

/// The analyzer's verdict.
struct Certificate {
  std::string schedule;  ///< Contract::name
  bool certified = false;  ///< true iff no Error-severity finding
  int stages_checked = 0;
  int copies_checked = 0;
  /// Pass order, then discovery order within a pass — deterministic.
  std::vector<Finding> findings;
  /// Findings beyond the per-property cap: counted, not materialized.
  int suppressed = 0;

  bool has(Property p) const;
  /// First Error-severity finding's property — the headline diagnosis
  /// (Structure if certified; callers check certified first).
  Property leading() const;
  /// Stable multi-line human-readable report.
  std::string format() const;
};

/// Statically certify `rec` against `contract` on machine `m`.  Never
/// executes the schedule; never throws on a bad schedule (bad *inputs* —
/// an ill-formed contract — still throw tarr::Error).
Certificate analyze(const trace::ScheduleRecord& rec,
                    const topology::Machine& m, const Contract& contract,
                    const AnalyzeOptions& opts = {});

/// The static side of the counter cross-check, exposed for tests: replay
/// the cost model's load-attribution rule over one stage's priced
/// transfers (attempts included) and return the loads in the order the
/// engine's stage events carry them (cable links first, then QPI, each in
/// first-touch order).  Bit-exact with respect to the traced loads by
/// construction.
std::vector<trace::Load> static_stage_loads(
    const trace::ScheduleRecord& rec, const trace::RecordedStage& stage,
    const topology::Machine& m);

}  // namespace tarr::analyze
