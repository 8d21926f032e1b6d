#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/stage_verifier.hpp"
#include "common/rng.hpp"
#include "simmpi/communicator.hpp"
#include "simmpi/costmodel.hpp"
#include "simmpi/transient.hpp"
#include "trace/sink.hpp"

/// \file engine.hpp
/// Stage-synchronous execution engine for collective schedules.
///
/// Collectives drive the engine imperatively: begin_stage(), a batch of
/// copy() calls describing every transfer that happens concurrently in that
/// algorithm stage, end_stage().  The engine supports two modes:
///
///  * Timed — no payload is moved; each stage is priced by the contention-
///    aware CostModel.  Used by the benchmarks at the paper's 4096-process
///    scale.
///  * Data — every process owns a block buffer and copies genuinely move
///    block *tags* between buffers with simultaneous-exchange semantics
///    (all reads in a stage observe the pre-stage state).  Used by the test
///    suite to verify algorithm correctness and the §V-B output-order
///    mechanisms end to end.  Time is accounted identically in both modes.
///
/// A "block" is the natural data unit of the collective (for allgather: one
/// rank's contribution of block_bytes bytes).

namespace tarr::simmpi {

/// Execution mode of an Engine.
enum class ExecMode { Timed, Data };

/// Tag value of an untouched block.
inline constexpr std::uint32_t kEmptyTag = 0xffffffffu;

/// See file comment.
class Engine {
 public:
  /// `buf_blocks` is the per-process buffer length in blocks; `block_bytes`
  /// the payload size of one block.  The communicator must outlive the
  /// engine.
  Engine(const Communicator& comm, const CostConfig& cfg, ExecMode mode,
         Bytes block_bytes, int buf_blocks);

  const Communicator& comm() const { return *comm_; }
  ExecMode mode() const { return mode_; }
  Bytes block_bytes() const { return block_bytes_; }
  int buf_blocks() const { return buf_blocks_; }

  /// Write a tag into a block of a rank's buffer (Data mode; no-op in Timed).
  void set_block(Rank r, int off, std::uint32_t tag);

  /// Read a block tag (Data mode only).
  std::uint32_t block(Rank r, int off) const;

  /// Arm transient-fault injection (see simmpi/transient.hpp): every remote
  /// transfer is subjected to seeded drop/corrupt draws and failed attempts
  /// are priced as retransmissions plus timeout backoff.  Must be called
  /// before the first stage; validates the config.  A config whose
  /// probabilities are all zero leaves the engine on the exact fault-free
  /// path (bit-identical costs and payloads).
  void set_transient_faults(const TransientFaultConfig& cfg);

  /// True when a fault config with non-zero probabilities is armed.
  bool transient_faults_enabled() const { return fault_cfg_.has_value(); }

  /// Counters of the armed fault model (all zero when disabled).
  const TransientFaultStats& transient_stats() const { return fault_stats_; }

  /// Open a stage of concurrent transfers.
  void begin_stage();

  /// Copy `nblocks` blocks from src's buffer at src_off to dst's buffer at
  /// dst_off.  src == dst performs (and prices) a local memory copy.  All
  /// copies of a stage read pre-stage buffer contents.
  void copy(Rank src, int src_off, Rank dst, int dst_off, int nblocks);

  /// Like copy(), but the destination blocks are *combined* (XOR of tags —
  /// a commutative, associative stand-in for an MPI reduction op) with the
  /// incoming payload instead of overwritten.  Pricing is identical to
  /// copy().  Used by the allreduce extension.
  void combine(Rank src, int src_off, Rank dst, int dst_off, int nblocks);

  /// Close the stage: price it, apply the data moves, add to total.
  /// Returns the stage cost.
  Usec end_stage();

  /// Account `extra` additional executions of the stage just ended (Timed
  /// mode only — used to compress the ring's p-1 identical stages).
  void repeat_last_stage(int extra);

  /// Apply the same block permutation to every rank's buffer
  /// (new[dst_of_block[b]] = old[b]) and charge one concurrent local-shuffle
  /// cost for the blocks that actually move.  This is §V-B "memory shuffling
  /// at the end".
  void local_permute_all(const std::vector<int>& dst_of_block);

  /// Add raw simulated time (used by the application model for compute
  /// phases and by callers that account one-time overheads).  `what` labels
  /// the increment in the trace (a TimeEvent is emitted when a sink is
  /// installed and t != 0, so trace consumers can reconstruct the engine
  /// total exactly).
  void add_time(Usec t, const char* what = "compute");

  /// Total simulated time so far.
  Usec total() const { return total_; }

  /// Congestion statistics of the stage most recently ended.
  const CostModel::StageStats& last_stage_stats() const {
    return cost_.last_stage_stats();
  }

  /// Peak per-cable network link load (bytes) seen in any stage so far.
  double peak_link_bytes() const { return peak_link_bytes_; }

  /// Number of stages executed so far.
  int stages_executed() const { return stages_executed_; }

  /// Install a trace sink (tarr::trace): every stage, transfer (with channel
  /// class, contention factor and retransmission attempts), link/QPI load
  /// sample and collective phase is emitted through it.  nullptr (the
  /// default) disables emission — the engine then does no tracing work
  /// beyond one pointer check per event site, and all simulated costs and
  /// payloads are bit-identical to a sink-free run.  Must be called outside
  /// a stage; enables the cost model's detail capture while installed.
  void set_trace_sink(trace::TraceSink* sink);
  trace::TraceSink* trace_sink() const { return sink_; }

  /// Open/close a named phase span covering the stages executed in between
  /// (collective phases, §V-B shuffles).  Nestable; no-ops without a sink.
  void trace_phase_begin(std::string name);
  void trace_phase_end();

  /// RAII phase span.
  class PhaseScope {
   public:
    PhaseScope(Engine& eng, const char* name) : eng_(&eng) {
      eng_->trace_phase_begin(name);
    }
    ~PhaseScope() { eng_->trace_phase_end(); }
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    Engine* eng_;
  };

 private:
  /// A copy of the open stage, applied at end_stage (Data mode only).
  struct PendingCopy {
    Rank src, dst;
    int src_off, dst_off, nblocks;
    bool combining;
    std::vector<std::uint32_t> payload;  // captured at copy() time
  };

  void enqueue(Rank src, int src_off, Rank dst, int dst_off, int nblocks,
               bool combining);

  /// One logical remote transfer of the open stage, as seen by the trace
  /// layer: `record` indexes the transfer's *first* attempt in the cost
  /// model's StageDetail (attempts are submitted consecutively).
  struct TraceXfer {
    Rank src, dst;
    Bytes bytes;
    int attempts;
    int record;
  };

  void emit_stage_trace(Usec stage_start, Usec stage_cost, Usec retry_wait);

  /// Draw the attempt sequence for one remote transfer; returns the number
  /// of attempts (>= 1) and accumulates the stage's drop-detection wait.
  int draw_attempts(Bytes bytes);

  const Communicator* comm_;
  CostModel cost_;
  ExecMode mode_;
  Bytes block_bytes_;
  int buf_blocks_;
  std::vector<std::vector<std::uint32_t>> buf_;  // Data mode only
  std::vector<PendingCopy> pending_;  // Data mode only
  int stage_copies_ = 0;              // copies of the open stage, both modes
  std::vector<Usec> local_bytes_per_rank_scratch_;
  bool stage_open_ = false;
  // Transient-fault injection (simmpi/transient.hpp); disengaged unless a
  // config with non-zero probabilities was armed.
  std::optional<TransientFaultConfig> fault_cfg_;
  Rng fault_rng_;
  TransientFaultStats fault_stats_;
  Usec stage_retry_wait_ = 0.0;
  Usec last_stage_cost_ = 0.0;
  Usec last_stage_retry_wait_ = 0.0;
  Usec total_ = 0.0;
  double peak_link_bytes_ = 0.0;
  int stages_executed_ = 0;
  int last_stage_transfers_ = 0;
  // Trace emission (tarr::trace); all fields idle when sink_ is null.
  trace::TraceSink* sink_ = nullptr;
  std::vector<TraceXfer> stage_xfers_;
  std::vector<std::pair<std::string, Usec>> phase_stack_;
  // Slow-check tier: shadows the stage protocol and rejects malformed
  // schedules (see check/stage_verifier.hpp).  Null unless the build has
  // TARR_SLOW_CHECKS=ON.
  std::unique_ptr<check::StageVerifier> verifier_;
};

}  // namespace tarr::simmpi
