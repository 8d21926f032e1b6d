#pragma once

#include <vector>

#include "simmpi/communicator.hpp"
#include "simmpi/costmodel.hpp"

/// \file async.hpp
/// Asynchronous (LogGP-flavored) execution model — a complementary lens to
/// the stage-synchronous Engine.
///
/// The stage-synchronous model charges every stage the cost of its slowest
/// transfer, which is exact for globally synchronized patterns (recursive
/// doubling) but rounds *up* pipelined ones: in a real ring, rank 5's step
/// 3 does not wait for rank 900's step 3.  The AsyncEngine instead keeps a
/// clock per rank and executes explicit send/receive dependencies:
///
///   * a send occupies the sender from its current time for `send_overhead`
///     plus the bytes' serialization at the injection rate (sends from one
///     rank serialize — the NIC/memory port constraint);
///   * the message arrives `channel latency + bytes * channel beta` after
///     it left;
///   * a receive completes at max(receiver's clock, arrival).
///
/// Channel alphas/betas reuse CostConfig.  Link-level bandwidth *sharing*
/// is not modeled here (that is the stage model's strength); use the two
/// models together: stage-synchronous for contention, async for pipelining.
/// docs/MODEL.md discusses the pairing.

namespace tarr::simmpi {

/// See file comment.
class AsyncEngine {
 public:
  /// `send_overhead` is the LogGP `o` parameter (us the sender's CPU is
  /// busy per message).  The communicator must outlive the engine.
  AsyncEngine(const Communicator& comm, const CostConfig& cfg,
              Usec send_overhead = 0.2);

  const Communicator& comm() const { return *comm_; }

  /// Local computation on `rank` for `duration` us.
  void compute(Rank rank, Usec duration);

  /// Non-blocking send of `bytes` from src to dst (src != dst): occupies
  /// the sender (overhead + payload serialization) and returns the arrival
  /// time WITHOUT advancing the receiver.  Pair with recv().  Issuing all
  /// of a step's isends before any recv() is what expresses genuinely
  /// concurrent exchanges (a blocking p2p() in a loop would create false
  /// dependencies between same-step messages).
  Usec isend(Rank src, Rank dst, Bytes bytes);

  /// Complete a receive on `rank`: its clock advances to at least
  /// `arrival` (the value an isend returned).
  void recv(Rank rank, Usec arrival);

  /// Blocking convenience: isend + recv (correct where the dependency is
  /// real, e.g. down a broadcast tree).  Returns the arrival time.
  Usec p2p(Rank src, Rank dst, Bytes bytes);

  /// Current clock of a rank.
  Usec clock(Rank rank) const;

  /// Completion time of the whole program (max over rank clocks).
  Usec makespan() const;

  /// Messages executed so far.
  long long messages() const { return messages_; }

 private:
  /// Pure channel cost of `bytes` between two cores (no sharing).
  Usec channel_cost(CoreId src, CoreId dst, Bytes bytes) const;

  const Communicator* comm_;
  CostConfig cfg_;
  Usec send_overhead_;
  std::vector<Usec> clock_;
  long long messages_ = 0;
};

/// Ring allgather on the async engine (per-rank message of `msg` bytes,
/// p-1 forwarding steps with true pipelining).  Returns the makespan delta.
Usec run_allgather_ring_async(AsyncEngine& eng, Bytes msg);

/// Recursive-doubling allgather on the async engine (2^k ranks).  Pairwise
/// exchanges synchronize both partners each stage.
Usec run_allgather_rd_async(AsyncEngine& eng, Bytes msg);

}  // namespace tarr::simmpi
