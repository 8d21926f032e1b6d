#pragma once

#include "simmpi/costmodel.hpp"
#include "trace/record.hpp"

/// \file async.hpp
/// Asynchronous (LogGP-flavored) execution model — a complementary lens to
/// the stage-synchronous Engine.
///
/// The stage-synchronous model charges every stage the cost of its slowest
/// transfer, which is exact for globally synchronized patterns (recursive
/// doubling) but rounds *up* pipelined ones: in a real ring, rank 5's step
/// 3 does not wait for rank 900's step 3.  async_makespan instead replays a
/// run's record (trace/record.hpp) on one clock per rank.  Each stage entry
/// executes once per repeat, in two steps:
///
///   * every transfer departs at its sender's clock, in record order, and
///     holds the sender for kAsyncSendOverhead plus the bytes'
///     serialization (`beta_shm_pair` on-node, `beta_net` across nodes):
///     sends from one rank serialize — the NIC/memory port constraint;
///   * then each destination's clock rises to at least departure + the
///     transfer's `uncontended` cost, the cost model's own channel price.
///
/// Link-level bandwidth *sharing* is not modeled here (that is the stage
/// model's strength), nor is any receive-side cost; use the two models
/// together: stage-synchronous for contention, async for pipelining.
/// docs/MODEL.md discusses the pairing.

namespace tarr::simmpi {

/// The LogGP `o` parameter: microseconds a sender's CPU is busy per message.
inline constexpr Usec kAsyncSendOverhead = 0.2;

/// Completion time (max over the rank clocks, which start at 0) of the
/// recorded run replayed on `ranks` per-rank clocks; see file comment.
/// Throws tarr::Error on what the model has no rule for: a Local transfer,
/// a local shuffle (any out-of-stage time), a retransmission, or a rank
/// outside [0, ranks).
Usec async_makespan(const trace::ScheduleRecord& record, int ranks,
                    const CostConfig& cfg);

}  // namespace tarr::simmpi
